"""Experiment drivers reproducing the paper's evaluation (Tables 3-13) plus
ablations; ``repro-experiments --help`` lists the table groups.

``runner`` is listed in ``__all__`` but not imported here: it is the
``python -m repro.experiments.runner`` entry point, and importing it with the
package would make ``runpy`` warn that the module was already loaded.
"""

from repro.experiments import (  # noqa: F401  (re-exported submodules)
    ablation,
    common,
    parallel,
    random_graphs,
    random_monitors,
    real_networks,
    truncated,
)

__all__ = [
    "ablation",
    "common",
    "parallel",
    "random_graphs",
    "random_monitors",
    "real_networks",
    "runner",
    "truncated",
]
