"""ponte: planar direct-stiffness analysis of plank-bridge replicas.

The package models the museum replicas of the famous plank bridge (pillars
standing on the deck, ropes from pillar tops back down to the deck) with
tension-only cable elements, shows computationally that those ropes carry
nothing, and simulates the counterweighted cantilever erection sequence
the sketch suggests.

Typical use::

    from ponte import catalog, solver

    model = catalog.generate_preset("GRANDE")
    result = solver.analyze(model)
    print(result.active_cables)        # empty: every rope is slack
    print(result.max_utilization)      # lives in the deck

or from the shell::

    ponte generate GRANDE -o grande.txt
    ponte analyze grande.txt --svg grande.svg --report grande.json
"""

from . import catalog, erection, reporting, solver, textio
from .catalog import BridgeKind, BridgeSpec, PresetId, Wheels, generate, generate_preset, presets, strip_to_bare_deck
from .erection import ErectionPlan, PlanReport, Stage, StageReport, Verdict, expand_plan, run_plan
from .errors import (
    DuplicateId,
    InvalidModel,
    InvalidPlan,
    InvalidSpec,
    NoConvergence,
    NonPositiveProperty,
    NotAReplica,
    ParseError,
    PonteError,
    SingularSystem,
    UnknownKeyword,
    UnknownReference,
)
from .model import (
    MATERIAL_PRESETS,
    BeamElement,
    CableElement,
    Material,
    NodalForce,
    Node,
    PointMass,
    Section,
    SelfWeight,
    StructureModel,
    Support,
    UniformLoad,
    build_model,
    self_weight_loads,
    validate,
)
from .reporting import build_diagram, color_class, compare, render_svg, write_report
from .solver import AnalysisResult, analyze, tension_only_analyze
from .textio import parse_model_file, parse_plan_file, serialize_model

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BeamElement",
    "BridgeKind",
    "BridgeSpec",
    "CableElement",
    "DuplicateId",
    "ErectionPlan",
    "InvalidModel",
    "InvalidPlan",
    "InvalidSpec",
    "MATERIAL_PRESETS",
    "Material",
    "NoConvergence",
    "NodalForce",
    "Node",
    "NonPositiveProperty",
    "NotAReplica",
    "ParseError",
    "PlanReport",
    "PointMass",
    "PonteError",
    "PresetId",
    "Section",
    "SelfWeight",
    "SingularSystem",
    "Stage",
    "StageReport",
    "StructureModel",
    "Support",
    "UniformLoad",
    "UnknownKeyword",
    "UnknownReference",
    "Verdict",
    "Wheels",
    "analyze",
    "build_diagram",
    "build_model",
    "catalog",
    "color_class",
    "compare",
    "erection",
    "expand_plan",
    "generate",
    "generate_preset",
    "parse_model_file",
    "parse_plan_file",
    "presets",
    "render_svg",
    "reporting",
    "run_plan",
    "self_weight_loads",
    "serialize_model",
    "solver",
    "strip_to_bare_deck",
    "tension_only_analyze",
    "textio",
    "validate",
    "write_report",
]
