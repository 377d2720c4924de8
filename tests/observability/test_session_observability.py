"""End-to-end observability behaviour of instrumented runs.

Covers the ISSUE's acceptance gates: the srun saturation gauge hits
the 112 ceiling on the fig4 configuration, live metrics populate
across backends, and observability (on or off) never perturbs the
simulated event order — same-seed profiles are byte-identical.
"""

import pytest

from repro.analytics import save_profile
from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.platform import generic
from repro.platform.spec import ResourceSpec


def _value(registry, name, **labels):
    fam = registry.get(name)
    assert fam is not None, f"metric {name} never registered"
    if labels:
        values = tuple(labels[n] for n in fam.label_names)
        return dict(fam.items())[tuple(str(v) for v in values)]
    return next(iter(dict(fam.items()).values()))


class TestDisabledByDefault:
    def test_registry_absent(self):
        session = Session(cluster=generic(2, 4), seed=0)
        assert session.obs.registry is None
        assert not session.obs.enabled
        assert session.env._instrument is None

    def test_disabled_components_hold_none(self):
        session = Session(cluster=generic(2, 4), seed=0)
        assert session.srun._m_active is None


class TestLiveMetrics:
    @pytest.fixture(scope="class")
    def observed(self):
        session = Session(cluster=generic(8, cores_per_node=8), seed=11,
                          observe=True)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(nodes=8, partitions=(
            PartitionSpec("srun", nodes=2),
            PartitionSpec("flux", nodes=3, n_instances=2),
            PartitionSpec("dragon", nodes=3))))
        tmgr.add_pilot(pilot)
        tds = []
        for i in range(30):
            backend = ("srun", "flux", "dragon")[i % 3]
            mode = "function" if backend == "dragon" else "executable"
            tds.append(TaskDescription(
                executable="/bin/x", duration=2.0, mode=mode,
                resources=ResourceSpec(cores=1), backend=backend))
        tasks = tmgr.submit_tasks(tds)
        session.run(tmgr.wait_tasks())
        return session, tasks

    def test_kernel_counters(self, observed):
        session, _ = observed
        reg = session.obs.registry
        events = _value(reg, "repro_kernel_events_total", kind="event")
        assert events.value > 0
        assert _value(reg, "repro_kernel_runs_total").value == 1
        assert _value(reg, "repro_kernel_sim_seconds_total").value == \
            pytest.approx(session.now)
        assert _value(reg, "repro_kernel_queue_depth").max > 0

    def test_agent_dispatch_counts_all_tasks(self, observed):
        session, tasks = observed
        reg = session.obs.registry
        fam = reg.get("repro_agent_dispatched_total")
        total = sum(c.value for _k, c in fam.items())
        assert total == len(tasks)

    def test_srun_metrics(self, observed):
        session, _ = observed
        reg = session.obs.registry
        assert _value(reg, "repro_srun_launches_total").value == 10
        active = _value(reg, "repro_srun_active")
        assert active.max >= 1
        assert active.value == 0  # everything drained

    def test_flux_metrics(self, observed):
        session, _ = observed
        reg = session.obs.registry
        fam = reg.get("repro_flux_jobs_total")
        done = sum(c.value for k, c in fam.items() if k[-1] == "completed")
        assert done == 10
        backlog = reg.get("repro_flux_backlog")
        assert all(g.value == 0 for _k, g in backlog.items())

    def test_dragon_metrics(self, observed):
        session, _ = observed
        reg = session.obs.registry
        fam = reg.get("repro_dragon_dispatch_total")
        total = sum(c.value for _k, c in fam.items())
        assert total == 10

    def test_scheduler_placements(self, observed):
        session, _ = observed
        reg = session.obs.registry
        fam = reg.get("repro_agent_sched_placements_total")
        # srun (10 tasks) and dragon placements flow through the agent
        # scheduler; flux schedules internally.
        total = sum(c.value for _k, c in fam.items())
        assert total >= 10


class TestSrunCeilingSaturation:
    def test_fig4_config_saturates_at_112(self):
        cfg = ExperimentConfig(exp_id="srun", launcher="srun",
                               workload="dummy", n_nodes=4,
                               duration=30.0, waves=1)
        result = run_experiment(cfg, keep_session=True, observe=True)
        reg = result.session.obs.registry
        active = _value(reg, "repro_srun_active")
        # 224 concurrent tasks contend for the machine-wide ceiling.
        assert active.max == 112
        waiting = _value(reg, "repro_srun_waiting")
        assert waiting.max > 0
        assert _value(reg, "repro_srun_launches_total").value == \
            result.n_tasks


class TestAgentIntakeGauge:
    def test_intake_depth_tracks_queued_tasks(self):
        """All 224 tasks of a one-wave run queue at once; the gauge
        reads the tasks still waiting after each dispatch, so it peaks
        at 223 and drains to 0 (the values the per-task intake store
        reported)."""
        cfg = ExperimentConfig(exp_id="flux_1", launcher="flux",
                               workload="null", n_nodes=4, duration=0.0,
                               waves=1, seed=1)
        result = run_experiment(cfg, keep_session=True, observe=True)
        depth = _value(result.session.obs.registry,
                       "repro_agent_intake_depth")
        assert result.n_tasks == 224
        assert depth.max == 223
        assert depth.value == 0


class TestDeterminism:
    CFG = ExperimentConfig(exp_id="flux_1", launcher="flux",
                           workload="dummy", n_nodes=2,
                           duration=5.0, waves=1)

    def _profile_bytes(self, tmp_path, tag, **kwargs):
        result = run_experiment(self.CFG, keep_session=True, **kwargs)
        path = tmp_path / f"{tag}.jsonl"
        save_profile(result.session.profiler, path)
        return path.read_bytes()

    def test_observe_does_not_perturb_trace(self, tmp_path):
        plain = self._profile_bytes(tmp_path, "plain")
        observed = self._profile_bytes(tmp_path, "observed", observe=True)
        assert plain == observed

    def test_same_seed_same_trace(self, tmp_path):
        a = self._profile_bytes(tmp_path, "a", observe=True)
        b = self._profile_bytes(tmp_path, "b", observe=True)
        assert a == b
