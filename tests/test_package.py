"""The package namespace re-exports each library module's `__all__`, and
every name the benchmark's tracer wraps exists."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import periplectic
from periplectic import algebra, classify, errors, linalg, reps, rhizome

MODULES = (algebra, classify, errors, linalg, reps, rhizome)

# the names the package exported when it listed them by hand
LISTED_BY_HAND = {
    "CanonicalForm", "CodecError", "DECOMPOSABLE", "EndoReport", "ExtensionProfile",
    "GaussRat", "I", "INDECOMPOSABLE", "Mat", "MonomialPair", "ONE",
    "PreconditionError", "RelationReport", "Rep", "RhizomeReport",
    "ScalingNormalization", "Seed", "ShapeError", "UNKNOWN", "Verdict", "Violation",
    "WeightBlockPartition", "ZERO", "analyze", "as_gauss", "bipartite_components",
    "build_hecke_module", "build_one_dim", "build_rep", "canonical_form",
    "canonical_to_json", "commutant_basis", "e_is_zero", "e_nonzero_guarantee",
    "e_sandwich_zero", "endo_report", "entrywise_e", "extension_profile",
    "format_pattern", "gauss_from_json", "gauss_to_json", "group_act",
    "indecomposable", "is_regular", "isomorphic", "kernel_basis", "mat_from_json",
    "mat_to_json", "parse_pattern", "poly_matrix", "rank", "rep_from_json",
    "rep_to_json", "scaling_normalize", "seed_from_json", "seed_to_json",
    "split_core", "split_weight_blocks", "verdict_to_json", "verify_hecke",
    "verify_periplectic",
}


def test_every_module_name_is_exported_as_the_same_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(periplectic, name, None) is getattr(module, name), (
                module.__name__,
                name,
            )


def test_all_is_the_union_of_the_module_lists():
    names = periplectic.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    assert len(LISTED_BY_HAND) == 61
    assert LISTED_BY_HAND <= set(names)


def test_traced_attributes_exist():
    # the tracer module is loaded from its file, never installed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, name, *_ in tracing.SPANS + tracing.COUNTS:
        # looked up as `tracing.install` looks it up
        owner_name, _, attr = name.rpartition(".")
        module = sys.modules[f"periplectic.{modname}"]
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in vars(owner), (modname, name)
