"""In-memory span tracing for the partkit benchmark.

Timing wrappers are installed on module attributes, under the name each
caller looks the function up by, so nothing under ``src/`` is edited.  A
span is ``[name, start, end, parent]``: times come from ``time.monotonic``
(CLOCK_MONOTONIC on Linux, one clock shared by every process on the host,
so spans from a CLI child and its parent line up), and ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the traced
process ends.  Hot, tiny functions get a call counter instead of a span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Optional

# Counter hooks: (counters, args, kwargs, result) -> None
CountHook = Callable[[Counter, tuple, dict, object], None]


class TraceError(Exception):
    """A function the tracer is told to wrap no longer exists."""


def _lookup(module: str, attribute: str) -> tuple[object, Callable]:
    mod = importlib.import_module(module)
    fn = getattr(mod, attribute, None)
    if fn is None:
        raise TraceError(f"{module}.{attribute} is gone; update the span lists in tracing.py")
    return mod, fn


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``count`` runs after the span closes."""
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.monotonic(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.monotonic()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn: Callable, count: CountHook) -> Callable:
        """``fn`` with a counter hook and no span."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module: str, attribute: str, name: str, count: Optional[CountHook] = None) -> None:
        """Replace ``module.attribute`` by its traced form.

        A missing attribute raises ``TraceError``: a silently skipped
        wrapper would read as an idle layer.
        """
        mod, fn = _lookup(module, attribute)
        setattr(mod, attribute, self.wrap(name, fn, count))

    def install_counter(self, module: str, attribute: str, count: CountHook) -> None:
        mod, fn = _lookup(module, attribute)
        setattr(mod, attribute, self.counted(fn, count))


def _add(key: str, amount: Callable[[tuple, dict, object], int]) -> CountHook:
    def hook(counters, args, kwargs, result):
        counters[key] += amount(args, kwargs, result)

    return hook


def _hooks(*hooks: CountHook) -> CountHook:
    def hook(counters, args, kwargs, result):
        for h in hooks:
            h(counters, args, kwargs, result)

    return hook


def _svm_updates(args, kwargs, result) -> int:
    # epochs x train samples x classes: one Pegasos step per class per visit
    samples = args[0] if args else kwargs["samples"]
    return result.epochs * len(samples) * len(result.classes)


_ONE = lambda args, kwargs, result: 1  # noqa: E731
_GENERATE = _hooks(
    _add("regions.images", _ONE),
    _add("regions.regions_out", lambda a, k, r: len(r.regions)),
)
_TRAIN = _hooks(_add("features.train_svm_calls", _ONE), _add("features.svm_updates", _svm_updates))

# (module, attribute, span name, counter hook); generate_region_set is also
# wrapped as the regions global that regions.generate_all calls
CLI_SPANS: tuple[tuple[str, str, str, Optional[CountHook]], ...] = (
    ("partkit.cli", "main", "cli.main", None),
    ("partkit.cli", "cmd_validate", "cli.validate", None),
    ("partkit.cli", "cmd_gen_regions", "cli.gen_regions", None),
    ("partkit.cli", "cmd_eval_pcp", "cli.eval_pcp", None),
    ("partkit.cli", "cmd_classify", "cli.classify", None),
    ("partkit.cli", "load_config", "config.load", None),
    (
        "partkit.cli",
        "parse_dataset",
        "dataset_io.parse_dataset",
        _add("dataset_io.keypoint_lines", lambda a, k, r: r.num_keypoints),
    ),
    (
        "partkit.cli",
        "parse_detections",
        "dataset_io.parse_detections",
        _add("dataset_io.detection_lines", lambda a, k, r: len(r)),
    ),
    ("partkit.cli", "read_labels", "dataset_io.read_labels", None),
    ("partkit.cli", "read_split", "dataset_io.read_split", None),
    ("partkit.cli", "generate_region_set", "regions.generate", _GENERATE),
    ("partkit.regions", "generate_region_set", "regions.generate", _GENERATE),
    ("partkit.cli", "write_region_sets", "regions.write_region_sets", None),
    ("partkit.cli", "write_crop_manifest", "regions.write_crop_manifest", None),
    (
        "partkit.cli",
        "export_yolo_labels",
        "regions.export_yolo_labels",
        _add("regions.label_files", lambda a, k, r: len(r)),
    ),
    ("partkit.cli", "read_region_sets", "regions.read_region_sets", None),
    (
        "partkit.cli",
        "select_all",
        "detection.select_all",
        _hooks(
            _add("detection.candidates", lambda a, k, r: len(a[0])),
            _add("detection.selected", lambda a, k, r: sum(len(v) for v in r.values())),
        ),
    ),
    ("partkit.cli", "compute_pcp", "detection.compute_pcp", None),
    ("partkit.cli", "fuse", "features.fuse", _add("features.fuse_calls", _ONE)),
    ("partkit.cli", "train_svm", "features.train_svm", _TRAIN),
    ("partkit.cli", "evaluate_accuracy", "features.evaluate", None),
    ("partkit.cli", "save_model", "features.save_model", None),
)

CLI_COUNTERS: tuple[tuple[str, str, CountHook], ...] = (
    ("partkit.regions", "iou_vs_union", _add("geometry.iou_vs_union_calls", _ONE)),
    ("partkit.detection", "iou", _add("geometry.iou_calls", _ONE)),
    (
        "partkit.regions",
        "eliminate_redundant",
        _add("regions.multi_candidate_calls", lambda a, k, r: int(len(a[0]) > 1)),
    ),
)

SYNTH_SPANS: tuple[tuple[str, str, str, Optional[CountHook]], ...] = (
    ("partkit.synth", "synth_corpus", "synth.corpus", None),
    ("partkit.synth", "synth_features", "synth.features", None),
    ("partkit.synth", "write_feature_records", "synth.write_features", None),
)


def install_cli(tracer: Tracer) -> None:
    """Wrap the functions the CLI commands reach, including
    ``FeatureStore.load``, a classmethod shared by every importer."""
    for module, attribute, name, count in CLI_SPANS:
        tracer.install(module, attribute, name, count)
    for module, attribute, count in CLI_COUNTERS:
        tracer.install_counter(module, attribute, count)
    store = importlib.import_module("partkit.features").FeatureStore
    load = tracer.wrap(
        "features.load", store.load.__func__, _add("features.records", lambda a, k, r: len(r))
    )
    store.load = classmethod(load)


def check_cli() -> None:
    """Raise ``TraceError`` unless every function ``install_cli`` wraps exists."""
    for module, attribute, *_ in CLI_SPANS + CLI_COUNTERS:
        _lookup(module, attribute)
    _lookup("partkit.features", "FeatureStore")


def install_synth(tracer: Tracer) -> None:
    for module, attribute, name, count in SYNTH_SPANS:
        tracer.install(module, attribute, name, count)


# --- span trees -------------------------------------------------------------

_EPSILON = 1e-9


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time direct children cover.

    The CLI runs single-threaded at ``--workers 1``, so siblings never
    overlap and the covered time is the sum of the children's durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tree_problems(spans: list[list]) -> list[str]:
    """Well-formedness: one root, parents precede children, children lie
    inside their parents, siblings are disjoint and no self time is negative."""
    problems = []
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans")
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} has no valid end")
            continue
        if parent < 0:
            continue
        if parent >= i:
            problems.append(f"span {i} {name} precedes its parent")
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or p_end is None or end > p_end:
            problems.append(f"span {i} {name} lies outside its parent {spans[parent][0]}")
        if start < last_child_end.get(parent, start):
            problems.append(f"span {i} {name} overlaps a sibling")
        last_child_end[parent] = end
    for i, value in enumerate(self_times(spans) if not problems else []):
        if value < -_EPSILON:
            problems.append(f"span {i} {spans[i][0]} has negative self time {value}")
    return problems
