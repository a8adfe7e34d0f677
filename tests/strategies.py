"""Shared hypothesis strategies: small discrete tables and formula trees."""

import hypothesis.strategies as strat

from mereoml import And, Atom, DecisionSystem, Implies, InformationSystem, Not, Or

TOKENS = ("0", "1", "2")


@strat.composite
def tables(draw, min_objects=1, max_objects=12, max_features=4, tokens=TOKENS):
    n_feat = draw(strat.integers(1, max_features))
    n_obj = draw(strat.integers(min_objects, max_objects))
    features = tuple(f"f{j}" for j in range(n_feat))
    rows = tuple(
        tuple(draw(strat.sampled_from(tokens)) for _ in features)
        for _ in range(n_obj)
    )
    return InformationSystem(features, rows)


@strat.composite
def decision_tables(draw, min_objects=2, max_objects=12, max_features=4):
    base = draw(
        tables(
            min_objects=min_objects,
            max_objects=max_objects,
            max_features=max_features,
        )
    )
    decisions = tuple(draw(strat.sampled_from(("no", "yes"))) for _ in base.rows)
    return DecisionSystem(base, "d", decisions)


def _conditional(system):
    return system.system if isinstance(system, DecisionSystem) else system


def atoms_for(system):
    """Atoms naming only observed feature/value pairs of the system."""
    table = _conditional(system)
    pairs = [(f, v) for f in table.features for v in sorted(table.value_set(f))]
    if isinstance(system, DecisionSystem):
        pairs += [(system.decision, v) for v in sorted(system.decision_values)]
    return strat.sampled_from(pairs).map(lambda fv: Atom(*fv))


def literals_for(system):
    return strat.one_of(atoms_for(system), atoms_for(system).map(Not))


def formulas_for(system, max_leaves=6, atoms=None):
    """Formula trees whose leaves come from ``atoms`` (default ``atoms_for``)."""
    return strat.recursive(
        atoms_for(system) if atoms is None else atoms,
        lambda sub: strat.one_of(
            sub.map(Not),
            strat.tuples(sub, sub).map(lambda p: And(*p)),
            strat.tuples(sub, sub).map(lambda p: Or(*p)),
            strat.tuples(sub, sub).map(lambda p: Implies(*p)),
        ),
        max_leaves=max_leaves,
    )


def granules_for(system, allow_empty=False):
    objs = sorted(_conditional(system).objects)
    return strat.sets(
        strat.sampled_from(objs), min_size=0 if allow_empty else 1
    ).map(frozenset)
