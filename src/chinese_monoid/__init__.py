"""Chinese monoid of rank n: canonical forms, the diagram tree, bicyclic
representations, and a desk-scale verification harness, loaded on first use."""

from .core import (DEFAULT_CAP, ClassCapExceeded, IndexConstraintViolated,
                   StaircaseForm, Word, WordSyntaxError, congruence_class,
                   count_classes, eq_oracle, first_level_pairs, format_word,
                   multiply, parse_word, to_staircase, verify_boxplus)
from .representation import (BadLeafPair, LeafRepresentation, NotALeaf,
                             NotAnArcStep, arc_element_image,
                             build_representation, eq_via_embedding, image,
                             incomparability_witness, leaf_representations)
from .tree import (Diagram, MalformedDiagram, RankTooSmall, children,
                   enumerate_leaves, parse_id, render, tribonacci, u_sequence)

__all__ = [
    "DEFAULT_CAP", "ClassCapExceeded", "IndexConstraintViolated",
    "StaircaseForm", "Word", "WordSyntaxError", "congruence_class",
    "count_classes", "eq_oracle", "first_level_pairs", "format_word",
    "multiply", "parse_word", "to_staircase", "verify_boxplus",
    "BoundsExceeded", "SuiteReport", "UnknownSuite", "run_suite",
    "BadLeafPair", "LeafRepresentation", "NotALeaf", "NotAnArcStep",
    "arc_element_image", "build_representation", "eq_via_embedding", "image",
    "incomparability_witness", "leaf_representations",
    "Diagram", "MalformedDiagram", "RankTooSmall", "children",
    "enumerate_leaves", "parse_id", "render", "tribonacci", "u_sequence",
]


def __getattr__(name: str):  # PEP 562: only the harness's names resolve here
    if name not in ("harness", "BoundsExceeded", "SuiteReport", "UnknownSuite", "run_suite"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # `from . import harness` would call this hook again
    harness = import_module(".harness", __name__)
    return harness if name == "harness" else getattr(harness, name)
