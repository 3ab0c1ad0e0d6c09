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

from importlib import import_module

__version__ = "0.1.0"

# Each public name by the submodule that defines it. A name is imported on
# its first read (PEP 562), so ``import ponte.cli`` or ``ponte generate``
# loads neither numpy nor the solver. ``__all__`` and ``dir(ponte)`` are
# read from this table too.
_EXPORTS = {
    "catalog": ("BridgeKind", "BridgeSpec", "PresetId", "Wheels", "generate", "generate_preset", "presets",
                "strip_to_bare_deck"),
    "erection": ("ErectionPlan", "PlanReport", "StageReport", "Verdict", "run_plan"),
    "errors": ("DuplicateId", "InvalidModel", "InvalidPlan", "InvalidSpec", "NoConvergence", "NotAReplica",
               "ParseError", "PonteError", "SingularSystem", "UnknownKeyword", "UnknownReference"),
    "model": ("MATERIAL_PRESETS", "BeamElement", "CableElement", "Material", "NodalForce", "Node", "PointMass",
              "Section", "SelfWeight", "StructureModel", "Support", "UniformLoad", "build_model", "self_weight_loads",
              "validate"),
    "reporting": ("build_diagram", "color_class", "compare", "render_svg", "write_report"),
    "solver": ("AnalysisResult", "analyze", "tension_only_analyze"),
    "textio": ("parse_model_file", "parse_plan_file", "serialize_model"),
}
# The public submodules, read as ``ponte.catalog`` and so on, and every name's submodule.
_ORIGIN = {
    **{module: module for module in ("catalog", "erection", "reporting", "solver", "textio")},
    **{name: module for module, names in _EXPORTS.items() for name in names},
}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_ORIGIN[name]}")
    value = module if _ORIGIN[name] == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
