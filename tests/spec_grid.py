"""Generate every bridge spec of a fixed grid and summarize the outputs.

    python tests/spec_grid.py

The grid crosses the 7 bridge kinds, the 3 wheel settings, mid_support and
crosswise_top_ropes (each off and on), pillar_count 0, 1, 2, 3, 5, 11 and
-1, deck_segments None, 1, 2, 3, 4, 6, 8, 9 and 12, span 12, 10.5 and 7 m
and pillar_height 1.5, -1.5 and 0 m: 47 628 specs, followed by the specs of
the 8 presets. Each spec's output is its model file
(``serialize_model(generate(spec))``), or ``ErrorType: text`` if
``generate`` raises. Each model file is parsed back, and compared with the
model it was written from. The script prints the spec count, how many specs
are rejected, how many model files parse to another model than their spec's
(0 when every file round-trips), a SHA-256 digest of all outputs in grid
order and the seconds the grid took. Two checkouts whose digests agree
write the same bytes for every spec of the grid.

Not a test module: pytest does not collect it, and it asserts nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ponte.catalog import BridgeKind, BridgeSpec, Wheels, generate, presets  # noqa: E402
from ponte.model import StructureModel  # noqa: E402
from ponte.textio import parse_model_file, serialize_model  # noqa: E402

PILLARS = [0, 1, 2, 3, 5, 11, -1]
SEGMENTS = [None, 1, 2, 3, 4, 6, 8, 9, 12]
SPANS = [12.0, 10.5, 7.0]
HEIGHTS = [1.5, -1.5, 0.0]


def specs() -> list[BridgeSpec]:
    """The grid, in a fixed order, then the presets."""
    grid = [BridgeSpec(kind, span, segments, pillars, height, wheels, mid, crosswise)
            for kind, wheels, mid, crosswise, pillars, segments, span, height
            in itertools.product(BridgeKind, Wheels, (False, True), (False, True),
                                 PILLARS, SEGMENTS, SPANS, HEIGHTS)]
    return grid + [p.spec for p in presets()]


def output(spec: BridgeSpec) -> tuple[str, StructureModel | None]:
    """The model file and its model, or the error ``generate`` raises as
    ``ErrorType: text`` and None."""
    try:
        model = generate(spec)
        return serialize_model(model), model
    except Exception as error:  # noqa: BLE001 - every error text is part of the output
        return f"{type(error).__name__}: {error}\n", None


def main() -> None:
    grid = specs()
    digest, rejected, differ = hashlib.sha256(), 0, 0
    start = time.perf_counter()
    for spec in grid:
        text, model = output(spec)
        if model is None:
            rejected += 1
        elif parse_model_file(text) != model:
            differ += 1
        digest.update(text.encode())
    seconds = time.perf_counter() - start
    print(f"specs: {len(grid)}")
    print(f"rejected: {rejected}")
    print(f"parsed back to another model: {differ} of {len(grid) - rejected}")
    print(f"sha256: {digest.hexdigest()}")
    print(f"seconds: {seconds:.2f}")


if __name__ == "__main__":
    main()
