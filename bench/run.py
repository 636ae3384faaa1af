"""partkit benchmark: synthetic corpora through the CLI, one process per command.

Usage:
    python3 bench/run.py --workload {prep,classify} --seed N --seconds S
                         --trace {0,1} [--smoke]

Run from the root of a checkout; partkit is imported from ``src/``.  One run:

1. builds the workload's corpus from the seed with partkit's public
   ``synth_*`` functions and ``write_detections``, three times into fresh
   directories, and reports the median as ``setup_s``;
2. repeats the workload's ``partkit`` commands for S seconds, each
   repetition into a fresh output directory, as a user's first run after
   ``partkit synth`` sees it.  Every command is its own child process at
   the default ``--workers 1``, launched like the ``partkit`` console
   script from ``launcher.py``, a process started before partkit is
   imported, so that each command's peak RSS is its own.  The set-ups are
   the warm-up: they compile every partkit module and leave the corpus in
   the page cache.  Writing 6000 label files into a new tree is not warmed
   away, because every user run pays for it;
3. checks the sha256 of every corpus file, every output file and every
   command's stdout against ``golden.json``, recorded from the code the
   benchmark was defined on (``record_golden.py``).  A mismatch names the
   file and counts as a failed operation;
4. prints a table of every metric with its unit and sample count, then, as
   the last line, one JSON object with the metrics named in
   ``BENCHMARK.json``: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics with ``--trace 1``.

With ``--trace 1`` the repetitions alternate between plain commands and
commands run through ``traced_cli.py``, which wraps each module's public
functions in spans; the difference of the two medians is
``trace.overhead_s``.  ``--smoke`` shrinks every corpus to synth's default
4 classes x 10 images, for a quick check of the benchmark itself.

The seed picks one of ``POOL`` corpora (seed mod ``POOL``), the set whose
outputs ``golden.json`` holds.  Exit status is 0 when a result was printed,
2 when the checkout holds no partkit sources, a span tree is malformed or a
function ``tracing.py`` wraps no longer exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

POOL = 16
SET_UPS = 3
# the console script's body: partkit = "partkit.cli:main"
LAUNCH = "import sys; from partkit.cli import main; sys.exit(main(sys.argv[1:]))"
SMOKE_SCALE = {"synth_classes": 4, "synth_images_per_class": 10}
REGION_OUTPUTS = ("gt_regions.txt", "crop_manifest.txt", "labels")


class BenchError(Exception):
    """A fault of the benchmark or its checkout, not of a measured command."""


@dataclass(frozen=True)
class Command:
    name: str
    # (corpus dir, output dir) -> the arguments after ``--config``
    args: Callable[[Path, Path], list]
    outputs: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """The command's prefix in metric names: gen-regions -> gen_regions."""
        return self.name.replace("-", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple[Command, ...]
    # prep rewrites detections.txt with one decoy per region at this score
    distractor_score: Optional[float] = None

    def settings(self, smoke: bool) -> dict:
        return {**self.config, **SMOKE_SCALE} if smoke else self.config

    def images(self, smoke: bool) -> int:
        cfg = self.settings(smoke)
        return cfg["synth_classes"] * cfg["synth_images_per_class"]

    def config_text(self, corpus_seed: int, smoke: bool) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings(smoke).items()]
        return "\n".join(lines + [f"seed = {corpus_seed}", ""])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prep",
            "CUB-200-2011 scale (6000 images); dataset_io, regions, geometry and detection "
            "do the work, features is idle",
            {
                "synth_classes": 200,
                "synth_images_per_class": 30,
                "synth_image_size": 200,
                "synth_jitter": 3,
                "synth_part_dropout": 0.15,
                "synth_score_noise": 0.9,
            },
            (
                Command("validate", lambda c, o: [c / "dataset"]),
                Command("gen-regions", lambda c, o: ["--out", o, c / "dataset"], REGION_OUTPUTS),
                Command(
                    "eval-pcp",
                    lambda c, o: ["--out", o, o / "gt_regions.txt", c / "detections.txt"],
                    ("pcp.tsv",),
                ),
            ),
            distractor_score=0.5,
        ),
        Workload(
            "classify",
            "100 classes, 448-d fused; SVM cost scales with the class count, so batching "
            "over classes shows here while regions is idle",
            {
                "synth_classes": 100,
                "synth_images_per_class": 30,
                "synth_feature_dim": 64,
                "synth_part_dropout": 0.1,
                "svm_epochs": 10,
            },
            (
                Command(
                    "classify",
                    lambda c, o: [
                        "--out", o, c / "features.tsv", c / "dataset" / "image_class_labels.txt",
                        c / "split.txt",
                    ],
                    ("model.svm", "accuracy.tsv"),
                ),
            ),
        ),
    )
}

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "images_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, what it should move); spans named in tracing.py
PER_LAYER = {
    "cli.import_s": ("s", "lower", "every *_s, most of all validate_s on prep"),
    "cli.validate.self_s": ("s", "lower", "validate_s on prep"),
    "cli.gen_regions.self_s": ("s", "lower", "gen_regions_s on prep"),
    "cli.eval_pcp.self_s": ("s", "lower", "eval_pcp_s on prep"),
    "cli.classify.self_s": ("s", "lower", "classify_s on classify"),
    "config.load_s": ("s", "lower", "every *_s"),
    "dataset_io.parse_dataset_s": ("s", "lower", "validate_s and gen_regions_s on prep"),
    "dataset_io.keypoint_lines": ("count", "lower", "validate_s and gen_regions_s on prep"),
    "dataset_io.parse_detections_s": ("s", "lower", "eval_pcp_s on prep"),
    "dataset_io.detection_lines": ("count", "lower", "eval_pcp_s on prep"),
    "dataset_io.read_labels_s": ("s", "lower", "classify_s; small"),
    "dataset_io.read_split_s": ("s", "lower", "classify_s; small"),
    "regions.generate_s": ("s", "lower", "gen_regions_s on prep; zero elsewhere"),
    "regions.images": ("count", "lower", "gen_regions_s on prep; zero elsewhere"),
    "regions.regions_out": ("count", "higher", "gen_regions_s on prep; zero elsewhere"),
    "regions.multi_candidate_calls": ("count", "lower", "gen_regions_s on prep; zero elsewhere"),
    "geometry.iou_vs_union_calls": ("count", "lower", "gen_regions_s on prep; zero elsewhere"),
    "regions.write_region_sets_s": ("s", "lower", "gen_regions_s on prep"),
    "regions.write_crop_manifest_s": ("s", "lower", "gen_regions_s on prep"),
    "regions.export_yolo_labels_s": ("s", "lower", "gen_regions_s on prep"),
    "regions.label_files": ("count", "lower", "gen_regions_s on prep"),
    "regions.bytes_written": ("bytes", "lower", "gen_regions_s on prep"),
    "regions.read_region_sets_s": ("s", "lower", "eval_pcp_s on prep"),
    "detection.select_all_s": ("s", "lower", "eval_pcp_s on prep"),
    "detection.candidates": ("count", "lower", "eval_pcp_s on prep"),
    "detection.selected": ("count", "higher", "eval_pcp_s on prep"),
    "detection.selected_ratio": ("ratio", "higher", "eval_pcp_s on prep"),
    "detection.compute_pcp_s": ("s", "lower", "eval_pcp_s on prep"),
    "geometry.iou_calls": ("count", "lower", "eval_pcp_s on prep"),
    "features.load_s": ("s", "lower", "classify_s"),
    "features.records": ("count", "lower", "classify_s"),
    "features.fuse_s": ("s", "lower", "classify_s"),
    "features.fuse_calls": ("count", "lower", "classify_s"),
    "features.train_svm_s": ("s", "lower", "classify_s most of all"),
    "features.train_svm_calls": ("count", "lower", "classify_s"),
    "features.svm_updates": ("count", "lower", "classify_s"),
    "features.evaluate_s": ("s", "lower", "classify_s"),
    "features.save_model_s": ("s", "lower", "classify_s"),
    "synth.corpus_s": ("s", "lower", "setup_s on every workload"),
    "synth.features_s": ("s", "lower", "setup_s on every workload"),
    "synth.write_features_s": ("s", "lower", "setup_s on every workload"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced wall time"),
}

# span name -> the per-layer metric summing its inclusive (total) or self time
_TOTAL_OF = {
    "config.load": "config.load_s",
    "dataset_io.parse_dataset": "dataset_io.parse_dataset_s",
    "dataset_io.parse_detections": "dataset_io.parse_detections_s",
    "dataset_io.read_labels": "dataset_io.read_labels_s",
    "dataset_io.read_split": "dataset_io.read_split_s",
    "regions.generate": "regions.generate_s",
    "regions.write_region_sets": "regions.write_region_sets_s",
    "regions.write_crop_manifest": "regions.write_crop_manifest_s",
    "regions.export_yolo_labels": "regions.export_yolo_labels_s",
    "regions.read_region_sets": "regions.read_region_sets_s",
    "detection.select_all": "detection.select_all_s",
    "detection.compute_pcp": "detection.compute_pcp_s",
    "features.load": "features.load_s",
    "features.fuse": "features.fuse_s",
    "features.train_svm": "features.train_svm_s",
    "features.evaluate": "features.evaluate_s",
    "features.save_model": "features.save_model_s",
}
_SELF_OF = {
    "cli.validate": "cli.validate.self_s",
    "cli.gen_regions": "cli.gen_regions.self_s",
    "cli.eval_pcp": "cli.eval_pcp.self_s",
    "cli.classify": "cli.classify.self_s",
}
_SYNTH_OF = {
    "synth.corpus": "synth.corpus_s",
    "synth.features": "synth.features_s",
    "synth.write_features": "synth.write_features_s",
}
_COUNTERS = (
    "dataset_io.keypoint_lines",
    "dataset_io.detection_lines",
    "regions.images",
    "regions.regions_out",
    "regions.multi_candidate_calls",
    "geometry.iou_vs_union_calls",
    "regions.label_files",
    "detection.candidates",
    "detection.selected",
    "geometry.iou_calls",
    "features.records",
    "features.fuse_calls",
    "features.train_svm_calls",
    "features.svm_updates",
)


# --- digests ------------------------------------------------------------------


def _file_sha(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest(path: Path) -> tuple[str, int]:
    """(sha256, bytes) of a file, or of a tree as sorted 'relpath sha' lines."""
    if not path.is_dir():
        return _file_sha(path), path.stat().st_size
    h = hashlib.sha256()
    size = 0
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f"{item.relative_to(path).as_posix()} {_file_sha(item)}\n".encode())
        size += item.stat().st_size
    return h.hexdigest(), size


def corpus_digests(corpus: Path) -> dict[str, str]:
    return {
        p.relative_to(corpus).as_posix(): _file_sha(p)
        for p in sorted(corpus.rglob("*"))
        if p.is_file() and p.name != "partkit.cfg"
    }


def mismatches(actual: dict[str, str], expected: Optional[dict[str, str]]) -> list[str]:
    if expected is None:
        return []
    names = sorted(set(actual) | set(expected))
    return [f"{n}: digest mismatch" for n in names if actual.get(n) != expected.get(n)]


# --- set-up -------------------------------------------------------------------


def import_partkit():
    """Import partkit from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "partkit" / "__init__.py").is_file():
        raise BenchError(f"no partkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import partkit
    import partkit.cli  # noqa: F401  compiles the module the first child imports

    if Path(partkit.__file__).resolve().parent != (SRC / "partkit").resolve():
        raise BenchError(f"partkit imported from {partkit.__file__}, not {SRC}")
    return partkit


def set_up(workload: Workload, config_text: str, corpus: Path) -> None:
    """Write the corpus the workload's commands read, as a user would with
    ``partkit synth``, then rewrite prep's detections with decoys."""
    from partkit import synth
    from partkit.config import parse_config_text
    from partkit.dataset_io import write_detections
    from partkit.regions import read_region_sets
    from partkit.seeding import derive_seed

    corpus.mkdir(parents=True)
    (corpus / "partkit.cfg").write_text(config_text, encoding="utf-8")
    config = parse_config_text(config_text)
    cfg = config.synth_config()
    paths = synth.synth_corpus(cfg, corpus, region_cfg=config.region_config(), ratios=config.ratios())
    if workload.distractor_score is not None:
        detections = synth.synth_detections(
            read_region_sets(paths["gt_regions"]),
            jitter_px=cfg.jitter_px,
            score_noise=cfg.score_noise,
            seed=derive_seed(cfg.seed, "detections"),
            distractor_score=workload.distractor_score,
        )
        write_detections(detections, paths["detections"])


# --- commands -----------------------------------------------------------------


@dataclass
class CommandRun:
    name: str
    wall_s: float
    rss_kb: int
    user_s: float
    sys_s: float
    problems: list[str]
    digests: dict[str, str]
    sizes: dict[str, int]
    spans: Optional[list] = None
    counters: dict = field(default_factory=dict)


class Launcher:
    """The small process that starts every measured command (``launcher.py``).

    Start it before partkit is imported or a corpus is built: ``wait4``
    charges a child with the peak RSS of the process it was spawned from.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list, logs: Path) -> dict:
        """Run one child with its output in ``logs``; the launcher's reply."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        request = {
            "argv": [str(a) for a in argv],
            "env": env,
            "stdout": str(logs / "stdout"),
            "stderr": str(logs / "stderr"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"launcher exited with status {self.proc.wait()}")
        reply = json.loads(line)
        if reply["maxrss_kb"] <= reply["launcher_maxrss_kb"]:
            raise BenchError(
                f"peak RSS {reply['maxrss_kb']} kB of {argv[1:3]} may be the launcher's "
                f"({reply['launcher_maxrss_kb']} kB)"
            )
        return reply


def run_command(
    launcher: Launcher, command: Command, cli_args: list, out: Path, logs: Path, traced: bool
) -> CommandRun:
    if traced:
        spans_path = logs / "spans.json"
        argv = [sys.executable, BENCH / "traced_cli.py", spans_path, *cli_args]
    else:
        argv = [sys.executable, "-c", LAUNCH, *cli_args]
    reply = launcher.run(argv, logs)
    start, end, code = reply["start"], reply["end"], reply["exit"]
    problems = []
    if code != 0:
        tail = (logs / "stderr").read_text(encoding="utf-8", errors="replace").strip()[-300:]
        problems.append(f"exit status {code}: {tail}")
    digests = {"stdout": _file_sha(logs / "stdout")}
    sizes = {}
    for name in command.outputs:
        if (out / name).exists():
            digests[name], sizes[name] = digest(out / name)
    run = CommandRun(
        command.name, end - start, reply["maxrss_kb"], reply["user_s"], reply["sys_s"], problems, digests, sizes
    )
    if traced and code == 0:
        run.spans, run.counters = _command_tree(spans_path, start, end)
    return run


def _command_tree(spans_path: Path, start: float, end: float) -> tuple[list, dict]:
    """The child's spans under a root for the whole process and a child for
    interpreter start-up through ``import partkit.cli``."""
    with open(spans_path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [["cli.process", start, end, -1], ["cli.import", start, data["imported"], 0]]
    for name, s, e, parent in data["spans"]:
        spans.append([name, s, e, parent + 2 if parent >= 0 else 0])
    problems = tracing.tree_problems(spans)
    if problems:
        raise BenchError(f"malformed span tree from {spans_path}: {problems[:3]}")
    return spans, data["counters"]


@dataclass
class Rep:
    commands: list[CommandRun]
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


class Runner:
    def __init__(
        self, workload: Workload, seed: int, smoke: bool, expected: Optional[dict], launcher: Launcher
    ):
        self.workload = workload
        self.smoke = smoke
        self.corpus_seed = seed % POOL
        self.config_text = workload.config_text(self.corpus_seed, smoke)
        self.expected = expected
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.corpus: Optional[Path] = None
        self._dirs = 0

    def _count(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def set_up(self) -> float:
        """One timed corpus build into a fresh directory; earlier ones are removed."""
        if self.corpus is not None:
            shutil.rmtree(self.corpus)
        self.corpus = self.work / f"corpus-{self._dirs}"
        self._dirs += 1
        os.sync()
        start = time.monotonic()
        set_up(self.workload, self.config_text, self.corpus)
        elapsed = time.monotonic() - start
        expected = self.expected.get("corpus") if self.expected is not None else None
        self.digests = {"corpus": corpus_digests(self.corpus)}
        self._count(mismatches(self.digests["corpus"], expected), "set-up")
        return elapsed

    def rep(self, traced: bool) -> Rep:
        out = self.work / f"out-{self._dirs}"
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self._dirs += 1
        runs = []
        for command in self.workload.commands:
            cli_args = [command.name, "--config", self.corpus / "partkit.cfg"]
            cli_args += command.args(self.corpus, out)
            run = run_command(self.launcher, command, cli_args, out, logs, traced)
            expected = self.expected.get(command.name) if self.expected is not None else None
            self._count(run.problems + mismatches(run.digests, expected), command.name)
            self.digests[command.name] = run.digests
            runs.append(run)
        shutil.rmtree(out, ignore_errors=True)
        return Rep(runs, traced)

    def measure(self, seconds: float, trace: bool) -> list[Rep]:
        """Repetitions until ``seconds`` have passed (at least one; with
        tracing, plain and traced alternate in pairs)."""
        reps: list[Rep] = []
        start = time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            reps.append(self.rep(traced=False))
            if trace:
                reps.append(self.rep(traced=True))
        return reps


# --- metrics ------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, setups: list[float], reps: list[Rep]) -> dict:
    """Metric -> (value, unit, samples), the gated metrics first."""
    images = runner.workload.images(runner.smoke)
    metrics = {
        "setup_s": (_median(setups), "s", len(setups)),
        # over the whole run rather than a median of a few repetitions: host
        # speed drifts in phases of seconds, and a sum averages them out
        "images_per_s": (images * len(reps) / sum(r.wall_s for r in reps), "1/s", len(reps)),
        "peak_rss_mb": (
            max(c.rss_kb for r in reps for c in r.commands) / 1024.0,
            "MB",
            sum(len(r.commands) for r in reps),
        ),
    }
    for command in runner.workload.commands:
        runs = [c for r in reps for c in r.commands if c.name == command.name]
        n = len(runs)
        metrics[f"{command.key}_s"] = (_median([c.wall_s for c in runs]), "s", n)
        metrics[f"{command.key}_s.min"] = (min(c.wall_s for c in runs), "s", n)
        metrics[f"{command.key}.user_s"] = (_median([c.user_s for c in runs]), "s", n)
        metrics[f"{command.key}.sys_s"] = (_median([c.sys_s for c in runs]), "s", n)
    metrics["failed_ops_frac"] = (runner.failed / runner.attempted, "ratio", runner.attempted)
    return metrics


def per_layer(synth_spans: list[list], plain: list[Rep], traced: list[Rep]) -> dict:
    """Metric -> (value, unit, samples): medians over traced repetitions of
    per-repetition sums, synth spans as medians over set-ups."""
    per_rep: list[dict[str, float]] = []
    imports = []
    for rep in traced:
        values: dict[str, float] = {name: 0.0 for name in PER_LAYER}
        for run in rep.commands:
            own = tracing.self_times(run.spans)
            for (name, start, end, _), self_s in zip(run.spans, own):
                if name in _TOTAL_OF:
                    values[_TOTAL_OF[name]] += end - start
                elif name in _SELF_OF:
                    values[_SELF_OF[name]] += self_s
                elif name == "cli.import":
                    imports.append(end - start)
            for counter in _COUNTERS:
                values[counter] += run.counters.get(counter, 0)
            values["regions.bytes_written"] += sum(
                size for name, size in run.sizes.items() if name in REGION_OUTPUTS
            )
        per_rep.append(values)
    metrics = {}
    for name, (unit, _, _) in PER_LAYER.items():
        metrics[name] = (_median([v[name] for v in per_rep]), unit, len(per_rep))
    candidates = metrics["detection.candidates"][0]
    ratio = metrics["detection.selected"][0] / candidates if candidates else 0.0
    metrics["detection.selected_ratio"] = (ratio, "ratio", len(per_rep))
    metrics["cli.import_s"] = (_median(imports), "s", len(imports))
    for span, metric in _SYNTH_OF.items():
        durations = [e - s for n, s, e, _ in synth_spans if n == span]
        metrics[metric] = (_median(durations), "s", len(durations))
    overhead = _median([r.wall_s for r in traced]) - _median([r.wall_s for r in plain])
    metrics["trace.overhead_s"] = (overhead, "s", min(len(traced), len(plain)))
    return metrics


def self_time_table(rep: Rep) -> list[str]:
    """Per command, self time by span name.

    The root span ``cli.process`` covers the whole child, so the column sums
    to the command's wall time by construction; the root's own share is the
    time outside start-up and ``main``, such as interpreter exit.
    """
    lines = []
    for run in rep.commands:
        totals: dict[str, float] = {}
        for (name, *_), own in zip(run.spans, tracing.self_times(run.spans)):
            totals[name] = totals.get(name, 0.0) + own
        lines.append(f"# self time, {run.name} (wall {run.wall_s:.4f} s):")
        for name, own in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"#   {name:<30} {own:10.4f} s")
    return lines


def environment() -> dict:
    """Context for BLAS-dependent digests and timings."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "loadavg": os.getloadavg(),
    }


def report(metrics: dict, names: dict, env: dict, runner: Runner, extra: list[str]) -> None:
    print(f"# env {json.dumps(env)}")
    scale = "smoke" if runner.smoke else "full"
    print(
        f"# workload {runner.workload.name} ({scale}), corpus seed {runner.corpus_seed}, "
        f"{runner.workload.images(runner.smoke)} images"
    )
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    print(f"# {'metric':<30} {'value':>14} {'unit':<6} n")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:<30} {value:14.6g} {unit:<6} {n}")
    for line in extra:
        print(line)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    print(json.dumps(result))


def load_golden(workload: str, scale: str, corpus_seed: int) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    try:
        return golden[workload][scale][str(corpus_seed)]
    except KeyError:
        raise BenchError(f"{GOLDEN.name} has no digests for {workload}/{scale}/{corpus_seed}") from None


def run(args) -> None:
    with Launcher() as launcher:
        import_partkit()
        env = environment()
        workload = WORKLOADS[args.workload]
        scale = "smoke" if args.smoke else "full"
        expected = load_golden(workload.name, scale, args.seed % POOL)
        runner = Runner(workload, args.seed, args.smoke, expected, launcher)
        tracer = tracing.Tracer()
        if args.trace:
            tracing.check_cli()
            tracing.install_synth(tracer)
        try:
            setups = [runner.set_up() for _ in range(SET_UPS)]
            reps = runner.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(runner.work, ignore_errors=True)
    plain = [r for r in reps if not r.traced]
    if args.trace:
        traced = [r for r in reps if r.traced and all(c.spans for c in r.commands)]
        if not traced:
            raise BenchError("no traced repetition completed")
        tables = [self_time_table(r) for r in traced]
        report(per_layer(tracer.spans, plain, traced), PER_LAYER, env, runner, tables[-1])
    else:
        report(end_to_end(runner, setups, plain), END_TO_END, env, runner, [])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="4 classes x 10 images")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        run(args)
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
