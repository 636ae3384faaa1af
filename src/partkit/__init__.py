"""Part-driven fine-grained recognition toolkit.

From CUB-style keypoint annotations to classification: ground-truth part
regions (padded keypoint rectangles and head-referenced square envelopes),
detector label export, detection post-processing with localization scoring,
and zero-filled multi-region feature fusion into a linear SVM, plus a
deterministic synthetic corpus generator for end-to-end testing.

Import each name from the module that defines it (``partkit.config``,
``partkit.regions``, ``partkit.detection``, ``partkit.features``, ...);
importing the package itself loads none of them.
"""

__version__ = "0.1.0"
