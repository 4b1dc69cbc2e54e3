"""scap_rules — the single rule registry for Scap's static-analysis tools.

Every rule any of the three checkers can emit is declared here exactly
once, tagged with the tool that owns it. The tools import this table for
their --list-rules output and for stale-waiver ownership (a waiver is only
"stale" to the tool that owns its rule); the self-tests import it to
validate fixture expectations (an expectation naming an unknown rule is a
harness bug, not a silently-never-matched line) and to require fixture
coverage per rule, so a tool's rule list and its self-test cannot drift
apart.

Tools
-----
lint       tools/scap_lint.py        line-oriented text rules
callgraph  tools/scap_callgraph.py   whole-program hot-path purity and
                                     concurrency-discipline rules
taint      tools/scap_taint.py       whole-program determinism taint and
                                     stats-mirror rules

Retired rules and where their guarantee lives now:
  hot-path-alloc     per-file allocation ban -> callgraph `hot-alloc`,
                     which follows the allocation from every SCAP_HOT
                     root instead of trusting a hand-kept file list
  switch-exhaustive  enum switches name every enumerator -> the
                     compiler, via -Wswitch-enum in the root
                     CMakeLists.txt (ctest switch_exhaustive_compile)
  nondeterminism     lexical nondeterminism ban -> the taint-* rules

The pseudo-rules `waiver` (a waiver comment without a reason) and
`stale-waiver` (a waiver that no longer suppresses anything) are emitted
per-tool: each tool audits only waivers naming rules it owns, so every
waiver has exactly one auditor.
"""

from collections import namedtuple

Rule = namedtuple("Rule", ["name", "tool", "description"])

RULES = [
    # --- tools/scap_lint.py --------------------------------------------------
    Rule("api-stats-mirror", "lint",
         "every scap_stats_t field is assigned in scap_get_stats"),
    Rule("trace-coverage", "lint",
         "every TraceEventType has an emit site and a pretty-printer case"),

    # --- tools/scap_callgraph.py (whole-program purity, DESIGN.md §14) ------
    Rule("hot-alloc", "callgraph",
         "no allocation reachable from a SCAP_HOT root"),
    Rule("hot-mutex", "callgraph",
         "no base::Mutex/CondVar acquisition reachable from a SCAP_HOT root"),
    Rule("hot-syscall", "callgraph",
         "no blocking syscall/stdio reachable from a SCAP_HOT root"),
    Rule("hot-throw", "callgraph",
         "no throw expression reachable from a SCAP_HOT root"),
    Rule("hot-recursion", "callgraph",
         "no direct or mutual recursion inside the hot closure"),
    Rule("hot-cold-call", "callgraph",
         "no call from the hot closure into a SCAP_COLD function"),

    # --- tools/scap_callgraph.py (concurrency discipline, DESIGN.md §11) ----
    Rule("spsc-discipline", "callgraph",
         "SPSC ring endpoints are called with serial-domain evidence"),
    Rule("mutex-discipline", "callgraph",
         "no raw std::mutex/lock/condvar types outside the base wrappers"),
    Rule("guard-coverage", "callgraph",
         "the pinned capability table's annotations are present"),

    # --- tools/scap_taint.py (whole-program determinism, DESIGN.md §15) -----
    # The per-function `nondeterminism` analyzer rule retired into these:
    # taint tracking flags the *transitive* reach of a nondeterministic
    # value into observable output, not just its lexical occurrence.
    Rule("taint-wallclock", "taint",
         "no wall-clock read (outside base/clock) reaching an output"),
    Rule("taint-rng", "taint",
         "no unseeded randomness (outside base::Rng) reaching an output"),
    Rule("taint-ambient", "taint",
         "no getenv/thread-id/process-id value reaching an output"),
    Rule("taint-addr-order", "taint",
         "no pointer-address-derived value or unordered-container "
         "iteration order reaching an output"),
    Rule("taint-sched", "taint",
         "no scheduling-dependent channel read reaching a deterministic "
         "output"),
    Rule("stats-registry", "taint",
         "every KernelStats field / metrics histogram classified exactly "
         "once in stats_determinism.inc, SCHED rows witness-backed"),
    Rule("counter-mirror", "taint",
         "every KernelStats field is counted outside a stats fold, "
         "mirrored into scap_stats_t and dumped by chaos_run"),
]

# Pseudo-rules every tool may emit about waivers of its own rules.
WAIVER_RULE = "waiver"              # waiver without a reason
STALE_WAIVER_RULE = "stale-waiver"  # waiver that suppresses nothing


def rules_for(tool):
    """Rule names owned by `tool`, in registry order."""
    return [r.name for r in RULES if r.tool == tool]


def owner_of(rule):
    """The owning tool of `rule`, or None for unknown/pseudo rules."""
    for r in RULES:
        if r.name == rule:
            return r.tool
    return None


def all_rule_names():
    return [r.name for r in RULES] + [WAIVER_RULE, STALE_WAIVER_RULE]
