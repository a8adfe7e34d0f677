"""Seeded input generators: prototype tables, warehouse worlds, fusion nets.

Every generator takes the seed as an argument and returns text, so the
same seed gives byte-identical files on any machine.  The randomness is
shaped so that the amount of work stays nearly constant across seeds:
prototypes always differ on every column, shelf gaps zigzag with a
one-cell seeded jitter, and every input agent has the same number of
targets.  Only the values move, which keeps run-to-run spread small.
"""

from __future__ import annotations

import random

CATEGORICAL = 8
NUMERIC = 6
FEATURES = [f"A{j}" for j in range(1, CATEGORICAL + NUMERIC + 1)]
DECISION = "A15"
#: the binning the CLI applies to the numeric columns
DISCRETIZE = ",".join(f"{f}:5" for f in FEATURES[CATEGORICAL:])

PROTOTYPES = 4
CELL_NOISE = 0.35
LABEL_NOISE = 0.10

#: fold seeds handed to ``mereoml classify``; a run uses one, picked by its seed
FOLD_SEEDS = (7, 11, 19, 23, 42, 57, 64, 99)

#: compound rules of one shape (categorical & binned -> decision), so every
#: pick costs about the same to evaluate
RULE_POOL = (
    "A1=c0 & A9=B2 -> A15=1",
    "A2=c1 & A10=B0 -> A15=0",
    "A3=c4 & A11=B3 -> A15=1",
    "A4=c2 & A12=B1 -> A15=0",
    "A5=c3 & A13=B4 -> A15=1",
    "A6=c0 & A14=B2 -> A15=0",
    "A7=c1 & A9=B4 -> A15=1",
    "A8=c3 & A11=B0 -> A15=0",
)


def pick(pool, seed: int):
    return pool[seed % len(pool)]


def prototype_table(seed: int, rows: int) -> str:
    """CSV text of a two-class table drawn from four row prototypes.

    Columns A1..A8 take five categorical tokens c0..c4, A9..A14 are numbers
    meant to be binned into quintiles, A15 is the class 0/1.  Prototypes
    differ on every column; each cell is replaced by noise with probability
    CELL_NOISE and each label flipped with probability LABEL_NOISE.
    """
    rng = random.Random(seed)
    cat_columns = [rng.sample(range(5), PROTOTYPES) for _ in range(CATEGORICAL)]
    num_columns = [rng.sample((-1.5, -0.5, 0.5, 1.5), PROTOTYPES) for _ in range(NUMERIC)]
    labels = rng.sample((0, 0, 1, 1), PROTOTYPES)
    lines = [",".join(FEATURES + [DECISION])]
    for _ in range(rows):
        k = rng.randrange(PROTOTYPES)
        cells = []
        for col in cat_columns:
            v = rng.randrange(5) if rng.random() < CELL_NOISE else col[k]
            cells.append(f"c{v}")
        for col in num_columns:
            mu = rng.uniform(-2.0, 2.0) if rng.random() < CELL_NOISE else col[k]
            cells.append(f"{mu + rng.gauss(0.0, 0.3):.3f}")
        label = labels[k] ^ (rng.random() < LABEL_NOISE)
        lines.append(",".join(cells + [str(label)]))
    return "\n".join(lines) + "\n"


WORLD_WIDTH, WORLD_HEIGHT, CELL = 40, 20, 0.25
SHELVES = 12
ROBOTS = 5


def warehouse_world(seed: int) -> str:
    """World-file text: 12 full-height shelf walls, each with one seeded gap.

    Gaps alternate between a low and a high band and are jittered by at
    most one cell, which diagonal moves absorb: the path's length in steps
    is set by the arena's width, so every seed takes the same number of
    steps (149).  The five robots start in the cross formation of
    ``data/cross.frm``.
    """
    rng = random.Random(seed)
    lines = [
        f"bounds 0 0 {WORLD_WIDTH} {WORLD_HEIGHT}",
        f"cell {CELL}",
    ]
    for k in range(SHELVES):
        x = 3 + 3 * k
        bottom = (7.0 if k % 2 == 0 else 11.0) + rng.randrange(-1, 2) * CELL
        lines.append(f"obstacle {x} 0 {x + 0.5} {bottom}")
        lines.append(f"obstacle {x} {bottom + 2} {x + 0.5} {WORLD_HEIGHT}")
    lines.append("goal 38 9 39.5 11")
    cy = 9.875
    # leader, west, east, north, south
    for rid, (dx, dy) in enumerate(((0, 0), (-CELL, 0), (CELL, 0), (0, CELL), (0, -CELL))):
        x, y = 1.375 + dx, cy + dy
        lines.append(f"robot {rid} {x - 0.1:.3f} {y - 0.1:.3f} {x + 0.1:.3f} {y + 0.1:.3f}")
    return "\n".join(lines) + "\n"


NET_INPUTS = 4


def fusion_net(seed: int, rows: int = 16) -> tuple[str, list[str]]:
    """Net-file text and one ``--input`` row per input agent.

    Four input agents of ``rows`` x 3 over tokens v0..v3, each with three
    targets; two ``auto`` consumers over pairs of them and an ``auto`` top
    over both, whose Cartesian universe has ``rows**4`` rows.
    """
    rng = random.Random(seed)
    lines = ["layer"]
    inputs = []
    for a in range(NET_INPUTS):
        lines.append(f"agent in{a}")
        lines.append("features " + " ".join(f"f{a}_{j}" for j in range(3)))
        for _ in range(rows):
            lines.append("object " + " ".join(f"v{rng.randrange(4)}" for _ in range(3)))
        for t in sorted(rng.sample(range(rows), 3)):
            lines.append(f"target {t}")
        inputs.append(",".join(f"v{rng.randrange(4)}" for _ in range(3)))
    lines += ["layer", "agent mid0 auto in0 in1", "agent mid1 auto in2 in3"]
    lines += ["layer", "agent top auto"]
    return "\n".join(lines) + "\n", inputs
