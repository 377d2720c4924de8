"""Figure-data generators: regenerate every paper figure as data files.

Each ``figN_data`` function runs the experiments behind one figure of
the paper and returns a :class:`FigureData` table (the same rows the
benchmarks print); :func:`export_figures` writes them as CSV for
downstream plotting.  ``quick=True`` shrinks scales/repetitions for
smoke runs (CI, tests); the default reproduces the benchmark-suite
configuration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..analytics.metrics import startup_overheads
from .configs import ExperimentConfig, config_by_id
from .harness import run_experiment, run_repetitions


@dataclass(frozen=True)
class FigureData:
    """One figure's regenerated data table."""

    figure_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: str = ""

    def to_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if self.notes:
                writer.writerow([f"# {self.figure_id}: {self.title}"])
                writer.writerow([f"# {self.notes}"])
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        return path


def fig4_data(quick: bool = False) -> FigureData:
    """Fig. 4: srun utilization under the concurrency ceiling."""
    cfg = ExperimentConfig(exp_id="srun", launcher="srun", workload="dummy",
                           n_nodes=4, duration=180.0,
                           waves=2 if quick else 4)
    result = run_experiment(cfg)
    from ..analytics import concurrency_series

    series = concurrency_series(result.tasks, resolution=30.0)
    rows = [(round(t, 1), int(v))
            for t, v in zip(series.times, series.values)]
    return FigureData(
        figure_id="fig4", title="srun utilization, dummy(180 s), 4 nodes",
        columns=("time_s", "running_tasks"), rows=rows,
        notes=f"utilization={result.utilization_cores:.3f} "
              "(paper: 0.50, ceiling=112)")


def fig5_data(quick: bool = False) -> FigureData:
    """Fig. 5: per-launcher throughput vs. node count."""
    sweeps = {
        "srun": ((1, 2, 4) if quick else (1, 2, 4, 16)),
        "flux_1": ((1, 4) if quick else (1, 4, 16, 64)),
        "dragon": ((1, 4) if quick else (1, 4, 16, 64)),
        "flux+dragon": ((2, 4) if quick else (2, 4, 16, 64)),
    }
    reps = 1 if quick else 3
    waves = 1 if quick else 2
    rows = []
    for exp_id, nodes in sweeps.items():
        for n in nodes:
            agg = run_repetitions(
                config_by_id(exp_id, n_nodes=n, waves=waves), n_reps=reps)
            rows.append((exp_id, n, round(agg.throughput_avg, 2),
                         round(agg.throughput_max, 2)))
    return FigureData(
        figure_id="fig5", title="task throughput vs nodes per launcher",
        columns=("launcher", "nodes", "avg_tasks_per_s", "max_tasks_per_s"),
        rows=rows)


def fig6_data(quick: bool = False) -> FigureData:
    """Fig. 6: Flux throughput vs. concurrent instance count."""
    sweep = ([(4, 1), (4, 4)] if quick
             else [(4, 1), (4, 4), (16, 1), (16, 16),
                   (64, 1), (64, 4), (64, 16), (64, 64)])
    reps = 1 if quick else 2
    rows = []
    for n, p in sweep:
        agg = run_repetitions(
            config_by_id("flux_n", n_nodes=n, n_partitions=p,
                         waves=1 if quick else 4), n_reps=reps)
        rows.append((n, p, round(agg.throughput_avg, 2),
                     round(agg.throughput_max, 2)))
    return FigureData(
        figure_id="fig6", title="Flux throughput vs instance count",
        columns=("nodes", "instances", "avg_tasks_per_s",
                 "max_tasks_per_s"),
        rows=rows)


def fig7_data(quick: bool = False) -> FigureData:
    """Fig. 7: instance launching overheads."""
    from ..core import PartitionSpec, PilotDescription, Session
    from ..platform import frontier

    sizes = (1, 4) if quick else (1, 4, 16, 64)
    rows = []
    for backend in ("flux", "dragon", "prrte"):
        for n in sizes:
            session = Session(cluster=frontier(max(n, 2)), seed=n)
            pmgr = session.pilot_manager()
            pilot = pmgr.submit_pilots(PilotDescription(
                nodes=n, partitions=(PartitionSpec(backend),)))
            session.run(pilot.active_event())
            overheads = startup_overheads(session.profiler, kind=backend)
            rows.append((backend, n, round(overheads[0][1], 3)))
            session.unwire()
    return FigureData(
        figure_id="fig7", title="instance launching overheads",
        columns=("runtime", "nodes_per_instance", "startup_s"),
        rows=rows,
        notes="paper: flux ~20 s, dragon ~9 s; prrte is this repo's "
              "extension backend")


def fig8_data(quick: bool = False) -> FigureData:
    """Fig. 8: IMPECCABLE concurrency/start-rate, srun vs flux."""
    from ..analytics import concurrency_series, start_rate_series

    nodes_list = (256,) if quick else (256, 1024)
    generations = 3 if quick else 12
    rows = []
    for launcher in ("srun", "flux"):
        for nodes in nodes_list:
            cfg = ExperimentConfig(
                exp_id=f"impeccable_{launcher}", launcher=launcher,
                workload="impeccable", n_nodes=nodes,
                generations=generations)
            result = run_experiment(cfg)
            conc = concurrency_series(result.tasks, resolution=300.0)
            rate = start_rate_series(result.tasks, bin_width=300.0)
            rate_by_time = dict(zip(rate.times, rate.values))
            for t, running in zip(conc.times, conc.values):
                nearest = min(rate_by_time,
                              key=lambda x: abs(x - t),
                              default=None)
                rows.append((launcher, nodes, round(t, 1), int(running),
                             round(rate_by_time.get(nearest, 0.0), 4)))
    return FigureData(
        figure_id="fig8",
        title="IMPECCABLE concurrency and start rate over time",
        columns=("launcher", "nodes", "time_s", "running_tasks",
                 "start_rate_per_s"),
        rows=rows)


#: figure id -> generator
GENERATORS: Dict[str, Callable[[bool], FigureData]] = {
    "fig4": fig4_data,
    "fig5": fig5_data,
    "fig6": fig6_data,
    "fig7": fig7_data,
    "fig8": fig8_data,
}


def export_figures(out_dir, figures: Optional[Sequence[str]] = None,
                   quick: bool = False) -> List[Path]:
    """Generate the requested figures (default: all) into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(figures) if figures else sorted(GENERATORS)
    written = []
    for name in names:
        try:
            generator = GENERATORS[name]
        except KeyError:
            raise ValueError(
                f"unknown figure {name!r}; choose from {sorted(GENERATORS)}"
            ) from None
        data = generator(quick)
        written.append(data.to_csv(out_dir / f"{name}.csv"))
    return written
