"""``repro.static`` — the fourth detector family: no execution at all.

Section 7 of the paper observes that existing static analyses cover a
sliver of the taxonomy (a loop-capture scanner that "already discovered
a few new bugs").  This package grows that sliver into a tier: an
abstract interpreter (:mod:`.interp`) reduces each kernel, read from
the source model (:mod:`.source`, one parse per module file), to a
whole-program summary model (:mod:`.ir`), and pure checkers over that
model cover both halves of the study —

* :mod:`.lockgraph` — double locks, upgrades, forgotten unlocks,
  interprocedural ABBA cycles, and the Figure 7 channel/Mutex traps;
* :mod:`.chanshape` — sends with no receiver, receives with no sender,
  close discipline, the Figure 1 abandoned send, select shapes,
  WaitGroup/Cond/context/pipe/timer misuse;
* :mod:`.sharedrace` — lockset data races with a small happens-before
  fragment, order violations, split critical sections;
* :mod:`.capture` — the original syntactic loop-capture detector,
  folded in as a peer (and the whole of *module mode* for arbitrary
  source trees).

The scorecard (:mod:`.scorecard`) scores the corpus against the
ground-truth labels in :mod:`repro.dataset.labels`; the triage bridge
(:mod:`.triage`) feeds the shared sweep-queue verdict, so a static scan
can skip or redirect the expensive dynamic exploration tier.
"""

from .capture import check_file, check_paths, check_source
from .engine import (MODEL_CHECKERS, analyze_corpus, analyze_kernel,
                     analyze_paths, analyze_program)
from .interp import StaticInterp, build_model
from .ir import MANY, ONCE, AbstractObj, Op, Path, ProgramModel, ThreadModel
from .model import CHECKERS, StaticFinding, StaticReport, dedupe
from .scorecard import (StaticScorecardRow, build_static_scorecard,
                        checker_timings, render_static_scorecard,
                        scan_apps, score_kernel, scorecard_dict,
                        static_precision, static_recall)
from .triage import (TriageVerdict, order_sweep_queue, triage_kernel,
                     triage_report, triage_sweep)

__all__ = [
    "AbstractObj", "CHECKERS", "MANY", "MODEL_CHECKERS", "ONCE", "Op",
    "Path", "ProgramModel", "StaticFinding", "StaticInterp",
    "StaticReport", "StaticScorecardRow", "ThreadModel", "TriageVerdict",
    "analyze_corpus", "analyze_kernel", "analyze_paths",
    "analyze_program", "build_model", "build_static_scorecard",
    "check_file", "check_paths", "check_source", "checker_timings",
    "dedupe", "order_sweep_queue", "render_static_scorecard",
    "scan_apps", "score_kernel", "scorecard_dict", "static_precision",
    "static_recall", "triage_kernel", "triage_report", "triage_sweep",
]
