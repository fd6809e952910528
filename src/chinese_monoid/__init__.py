"""Chinese monoid of rank n: canonical forms, the diagram tree, bicyclic
representations, and a desk-scale verification harness."""

from .core import (DEFAULT_CAP, ClassCapExceeded, IndexConstraintViolated,
                   StaircaseForm, Word, WordSyntaxError, congruence_class,
                   count_classes, eq_oracle, first_level_pairs, format_word,
                   multiply, parse_word, to_staircase, verify_boxplus)
from .harness import BoundsExceeded, SuiteReport, UnknownSuite, run_suite
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
