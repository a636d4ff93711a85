"""Static analysis for specs, corpora and the reproduction itself.

The paper's spec layer is an affine type system (§4.2); this package
is the *static* half of that discipline, which the seed repo only
enforced dynamically at (de)serialization time:

* :mod:`repro.analysis.diagnostics` — stable ``NYX0xx`` rule codes,
  severities, machine-readable reports;
* :mod:`repro.analysis.speclint` — node-graph lint for a
  :class:`~repro.spec.nodes.Spec` (unproducible/dead edge types,
  unreachable nodes, id collisions, unmutatable data);
* :mod:`repro.analysis.oplint` — abstract interpretation over op
  sequences (dead outputs, unobservable tails, marker placement,
  mutation-introduced affine violations);
* :mod:`repro.analysis.fixes` — mechanical repairs (dead-op
  elimination with ref remapping, marker normalization, ill-typed-op
  dropping) used by trim, persistence and corpus sync;
* :mod:`repro.analysis.source` — the one source index the four source
  lints below share: each module read and parsed once, one class
  scanner, ``# nyx: hot`` comments tokenized once;
* :mod:`repro.analysis.selflint` — AST determinism lint over
  ``src/repro`` (wall clock, host randomness, OS entropy, unordered
  set iteration — everything that would break deterministic
  interleaving and replayable fault plans);
* :mod:`repro.analysis.corpus` — audit/repair persisted corpora;
* :mod:`repro.analysis.resetlint` — reset-safety lint over the
  snapshot machinery (``vm/``, ``guestos/``, ``emu/``, ``faults/``):
  mutable state that no reset path restores;
* :mod:`repro.analysis.sanitizer` — runtime reset sanitizer:
  structural digest of the host object graph diffed across snapshot
  restores, naming the exact attribute path that leaked;
* :mod:`repro.analysis.durlint` — durability lint (NYX06x): every
  ``snapshot_state``/``restore_state`` pair audited for uncaptured
  mutable state, capture/restore asymmetry, unbumped ``STATE_FORMAT``,
  non-deterministic serialization and unregistered journal frames;
* :mod:`repro.analysis.statediff` — runtime checkpoint verifier:
  snapshot→restore→re-snapshot digest fixpoint plus a cross-process
  differential that restores a checkpoint in a fresh subprocess,
  re-steps to the parent's exec boundary and diffs the states.

All of it is exposed as the ``repro analyze`` CLI subcommand and runs
as a CI gate.
"""

from repro.analysis.diagnostics import (Diagnostic, FAMILIES, Report,
                                        RULES, Severity, validate_registry)
from repro.analysis.durlint import (analyze_durability_source,
                                    analyze_durability_tree,
                                    durability_fixit_stubs,
                                    state_inventory)
from repro.analysis.fixes import (FixResult, apply_fixes,
                                  eliminate_dead_ops, repair_blob,
                                  repair_ops)
from repro.analysis.oplint import analyze_ops
from repro.analysis.resetlint import (analyze_reset_source,
                                      analyze_reset_tree,
                                      allowed_reset_attrs, fixit_stubs,
                                      tree_fixit_stubs)
from repro.analysis.sanitizer import (ResetSanitizer, diff_digests,
                                      structural_digest)
from repro.analysis.source import SourceIndex
from repro.analysis.speclint import analyze_spec
from repro.analysis.statediff import (fixpoint_check, state_digest,
                                      verify_checkpoint)

__all__ = [
    "Diagnostic", "FAMILIES", "Report", "RULES", "Severity",
    "validate_registry",
    "FixResult", "apply_fixes", "eliminate_dead_ops", "repair_blob",
    "repair_ops", "analyze_ops", "analyze_spec",
    "analyze_reset_source", "analyze_reset_tree", "allowed_reset_attrs",
    "fixit_stubs", "tree_fixit_stubs",
    "ResetSanitizer", "diff_digests", "structural_digest", "SourceIndex",
    "analyze_durability_source", "analyze_durability_tree",
    "durability_fixit_stubs", "state_inventory",
    "fixpoint_check", "state_digest", "verify_checkpoint",
]
