"""Fusion networks: construction, degree propagation, bound checking."""

import itertools
import math
import random
import re
import shlex
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

import mereoml.net
from mereoml import (
    Agent,
    And,
    Atom,
    CartesianRows,
    Granule,
    InformationSystem,
    LukasiewiczInclusion,
    Network,
    NetworkError,
    classify_to_target,
    consumer_from,
    extension,
    fuse_degrees,
    fuse_entities,
    fuse_formulas,
    fuse_granules,
    granule,
    load_network,
    lukasiewicz_row_degree,
    propagate,
    t_lukasiewicz,
)
from mereoml.cli import main
from mereoml.bits import MemberView
from memory import traced_peak


def agent_b():
    return Agent(
        "b",
        InformationSystem(("f1", "f2"), (("0", "0"), ("0", "1"), ("1", "1"))),
        (0, 2),
    )


def agent_c():
    return Agent("c", InformationSystem(("g1",), (("0",), ("1",))), (1,))


def demo_network():
    b, c = agent_b(), agent_c()
    return Network(((b, c), (consumer_from("top", [b, c]),)))


# --- agents ----------------------------------------------------------------


def test_agent_validation():
    table = InformationSystem(("f",), (("0",), ("1",)))
    with pytest.raises(NetworkError):
        Agent("a", table, ())
    with pytest.raises(NetworkError):
        Agent("a", table, (5,))
    with pytest.raises(NetworkError):
        Agent("a", table, (0,), producers=(agent_c(),), selectors=None)
    with pytest.raises(NetworkError):
        Agent("a", table, (0,), producers=(agent_c(),), selectors=((0,),))


def test_consumer_from_cartesian():
    b, c = agent_b(), agent_c()
    top = consumer_from("top", [b, c])
    assert top.system.features == ("f1", "f2", "g1")
    assert len(top.system.rows) == 6
    assert top.selectors == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
    assert top.system.rows[1] == ("0", "0", "1")
    # targets are exactly the fusions of producer targets
    assert top.targets == (1, 5)


def test_consumer_from_explicit_selectors():
    b, c = agent_b(), agent_c()
    top = consumer_from("top", [b, c], selectors=[(0, 1), (2, 0)])
    assert top.system.rows == (("0", "0", "1"), ("1", "1", "0"))
    assert top.targets == (0,)
    with pytest.raises(NetworkError):
        consumer_from("top", [b, c], selectors=[(0, 1, 2)])
    # an id outside its producer names no row, even one a negative index reaches
    for bad in (-1, 0), (0, 2), (3, 0):
        with pytest.raises(NetworkError, match=re.escape(f"selector {bad} of 'top' is outside")):
            consumer_from("top", [b, c], selectors=[(0, 1), bad])


def test_explicit_consumer_cost_follows_its_selectors():
    # every row of both producers is a target: the fused targets number
    # 600 * 600, and a consumer of two selectors reads only those two
    n = 600
    producers = [
        Agent(name, InformationSystem((name + "0",), tuple((str(i),) for i in range(n))), tuple(range(n)))
        for name in "bc"
    ]
    top, peak = traced_peak(consumer_from, "top", producers, [(0, 1), (599, 3)])
    assert top.targets == (0, 1)
    assert top.system.rows == (("0", "1"), ("599", "3"))
    assert peak < 1_000_000


def test_consumer_from_rejects_shared_features():
    b = agent_b()
    clash = Agent("x", InformationSystem(("f1",), (("0",),)), (0,))
    with pytest.raises(NetworkError):
        consumer_from("top", [b, clash])
    with pytest.raises(NetworkError):
        consumer_from("top", [])


# --- network shape ---------------------------------------------------------


def test_network_accepts_demo_shape():
    net = demo_network()
    assert net.output.name == "top"
    assert [a.name for a in net.layers[0]] == ["b", "c"]


def test_network_rejects_bad_shapes():
    b, c = agent_b(), agent_c()
    top = consumer_from("top", [b, c])
    with pytest.raises(NetworkError):
        Network(())
    with pytest.raises(NetworkError):
        Network(((),))
    # consumer sitting in layer 0
    with pytest.raises(NetworkError):
        Network(((top,),))
    # plain agent above layer 0
    with pytest.raises(NetworkError):
        Network(((b, c), (agent_b(),)))
    # producer outside the previous layer
    other = consumer_from("other", [agent_b()])
    with pytest.raises(NetworkError):
        Network(((b, c), (other,)))
    # dangling producer
    only_b = consumer_from("only", [b])
    with pytest.raises(NetworkError):
        Network(((b, c), (only_b,)))
    # two consumers of one producer
    t1, t2 = consumer_from("t1", [b]), consumer_from("t2", [b])
    with pytest.raises(NetworkError):
        Network(((b,), (t1, t2)))
    # output layer wider than one agent
    d = Agent("d", InformationSystem(("h1",), (("0",),)), (0,))
    td = consumer_from("td", [d])
    with pytest.raises(NetworkError):
        Network(((b, d), (only_b, td)))


def test_network_rejects_sibling_feature_clash():
    b = agent_b()
    clash = Agent("x", InformationSystem(("f2",), (("0",),)), (0,))
    with pytest.raises(NetworkError):
        Network(((b, clash),))


# --- fusion primitives -----------------------------------------------------


def test_fuse_entities():
    top = demo_network().output
    assert fuse_entities(top, [("0", "1"), ("1",)]) == ("0", "1", "1")
    with pytest.raises(NetworkError):
        fuse_entities(agent_b(), [("0", "1")])
    with pytest.raises(NetworkError):
        fuse_entities(top, [("0", "1")])
    with pytest.raises(NetworkError):
        fuse_entities(top, [("0",), ("1",)])


def test_fuse_degrees_is_lukasiewicz():
    assert fuse_degrees(0.8, 0.7) == pytest.approx(0.5)
    assert fuse_degrees(0.4, 0.5) == 0
    assert fuse_degrees(1, 0.3) == pytest.approx(0.3)


def test_fuse_formulas():
    a, b = Atom("f1", "0"), Atom("g1", "1")
    assert fuse_formulas(a, b) == And(a, b)


def test_fuse_granules():
    net = demo_network()
    top = net.output
    g_b = Granule(0, Fraction(1, 2), frozenset({0, 1}))
    g_c = Granule(1, Fraction(1), frozenset({1}))
    fused = fuse_granules(g_b, g_c, top)
    # selector pairs drawn from {0,1} x {1}
    assert fused.members == frozenset({1, 3})
    assert fused.center == 1
    assert fused.radius == t_lukasiewicz(Fraction(1, 2), Fraction(1))
    with pytest.raises(NetworkError):
        fuse_granules(g_b, g_c, agent_b())


def _subsets(n):
    return [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]


def ref_fused_members(g_b, g_c, consumer):
    """The fused members as a frozenset, by the per-row test."""
    return frozenset(
        i
        for i, (xb, xc) in enumerate(consumer.selectors)
        if xb in g_b.members and xc in g_c.members
    )


@pytest.mark.parametrize(
    "selectors", [None, [(0, 0), (2, 1), (1, 1), (2, 0), (0, 1)]], ids=["product", "narrowed"]
)
def test_fuse_granules_gives_a_member_view_of_the_per_row_test(selectors):
    b, c = agent_b(), agent_c()
    top = consumer_from("top", [b, c], selectors=selectors)
    for members_b, members_c in itertools.product(_subsets(3), _subsets(2)):
        g_b, g_c = Granule(0, Fraction(1, 2), members_b), Granule(1, Fraction(1), members_c)
        fused = fuse_granules(g_b, g_c, top)
        assert isinstance(fused.members, MemberView)
        assert fused.members == ref_fused_members(g_b, g_c, top)


def test_fuse_granules_center_must_exist():
    b, c = agent_b(), agent_c()
    narrowed = consumer_from("top", [b, c], selectors=[(0, 0), (2, 1)])
    g_b = Granule(1, Fraction(1), frozenset({1}))
    g_c = Granule(0, Fraction(1), frozenset({0}))
    with pytest.raises(NetworkError):
        fuse_granules(g_b, g_c, narrowed)


def test_fused_granule_sits_inside_direct_granule():
    """Fusing granules of radius r and s lands inside the consumer granule
    at the eroded radius max(0, r+s-1)."""
    net = demo_network()
    b, c = net.layers[0]
    top = net.output
    inc_b = LukasiewiczInclusion(b.system)
    inc_c = LukasiewiczInclusion(c.system)
    inc_top = LukasiewiczInclusion(top.system)
    for rb in (Fraction(1, 2), Fraction(1)):
        for rc in (Fraction(0), Fraction(1)):
            for xb in range(3):
                for xc in range(2):
                    fused = fuse_granules(
                        granule(xb, rb, inc_b), granule(xc, rc, inc_c), top
                    )
                    direct = granule(fused.center, fused.radius, inc_top)
                    assert fused.members <= direct.members


@hypothesis.given(
    strat.lists(strat.sampled_from("01"), min_size=1, max_size=5),
    strat.lists(strat.sampled_from("01"), min_size=1, max_size=5),
    strat.data(),
)
def test_fused_row_degree_beats_lukasiewicz_fold(xs, ys, data):
    """Concatenated rows agree at least as often as the folded part degrees."""
    xs2 = [data.draw(strat.sampled_from("01")) for _ in xs]
    ys2 = [data.draw(strat.sampled_from("01")) for _ in ys]
    r_b = lukasiewicz_row_degree(xs, xs2)
    r_c = lukasiewicz_row_degree(ys, ys2)
    fused = lukasiewicz_row_degree(tuple(xs) + tuple(ys), tuple(xs2) + tuple(ys2))
    assert fused >= t_lukasiewicz(r_b, r_c)


def test_extension_multiplies_across_a_full_product():
    net = demo_network()
    b, c = net.layers[0]
    top = net.output
    phi_b = Atom("f2", "1")
    phi_c = Atom("g1", "0")
    g_b = Granule(0, Fraction(1, 2), frozenset({0, 1}))
    g_c = Granule(0, Fraction(1), frozenset({0, 1}))
    fused = fuse_granules(g_b, g_c, top)
    lhs = extension(fused.members, fuse_formulas(phi_b, phi_c), top.system)
    rhs = extension(g_b.members, phi_b, b.system) * extension(
        g_c.members, phi_c, c.system
    )
    assert lhs == rhs == Fraction(1, 4)


# --- classification and propagation ----------------------------------------


def test_classify_to_target_tie_goes_earliest():
    b = agent_b()
    # ("0","1") is one step from target 0 and one step from target 2
    target, deg = classify_to_target(b, ("0", "1"))
    assert target == 0
    assert deg == pytest.approx(math.exp(-0.25))
    with pytest.raises(NetworkError):
        classify_to_target(b, ("0",))


def test_propagate_demo_trace():
    net = demo_network()
    trace = propagate(net, [("0", "1"), ("0",)])
    assert [s.agent for s in trace.steps] == ["b", "c", "top"]
    sb, sc, st = trace.steps
    assert sb.layer == 0 and sb.lukasiewicz_bound is None
    assert sb.target == 0
    assert sb.degree == pytest.approx(math.exp(-0.25))
    assert sc.target == 1
    assert sc.degree == pytest.approx(math.exp(-1))
    assert st.entity == ("0", "1", "0")
    assert st.target == 1
    assert st.degree == pytest.approx(math.exp(-4 / 9))
    assert st.lukasiewicz_bound == pytest.approx(
        math.exp(-0.25) + math.exp(-1) - 1
    )
    assert st.meets_max_bound is False
    assert trace.final_target == 1
    assert trace.final_degree == pytest.approx(math.exp(-4 / 9))


def test_propagate_on_target_input_is_exact():
    net = demo_network()
    trace = propagate(net, [("1", "1"), ("1",)])
    assert trace.final_degree == pytest.approx(1.0)
    assert trace.final_target == 5
    assert trace.steps[-1].meets_max_bound is True


def test_propagate_input_count_checked():
    with pytest.raises(NetworkError):
        propagate(demo_network(), [("0", "1")])


def test_propagate_three_layer_chain():
    b, c = agent_b(), agent_c()
    mid = consumer_from("mid", [b, c])
    top = consumer_from("out", [mid])
    net = Network(((b, c), (mid,), (top,)))
    trace = propagate(net, [("0", "0"), ("1",)])
    assert [s.layer for s in trace.steps] == [0, 0, 1, 2]
    assert trace.steps[-1].entity == ("0", "0", "1")
    assert trace.final_degree == pytest.approx(1.0)


# --- network files ---------------------------------------------------------

DEMO_TEXT = """\
# two producers feeding one consumer
layer
agent b
features f1 f2
object 0 0
object 0 1
object 1 1
target 0
target 2
agent c
features g1
object 0
object 1
target 1
layer
agent top auto
"""


TWO_INPUTS = (
    "layer\nagent a\nfeatures f\nobject 0\ntarget 0\n"
    "agent {}\nfeatures g\nobject 0\ntarget 0\n"
)
REPEATED_INPUT_NAME = TWO_INPUTS.format("a") + "layer\nagent top auto\n"
REPEATED_CONSUMER_NAME = TWO_INPUTS.format("b") + "layer\nagent a auto a b\n"


def test_load_network_round_trips_demo(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(DEMO_TEXT, encoding="utf-8")
    net = load_network(path)
    assert [a.name for a in net.layers[0]] == ["b", "c"]
    assert net.output.targets == (1, 5)
    trace = propagate(net, [("0", "1"), ("0",)])
    assert trace.final_degree == pytest.approx(math.exp(-4 / 9))


def test_load_network_named_producers(tmp_path):
    text = DEMO_TEXT.replace("agent top auto", "agent top auto b c")
    path = tmp_path / "net.txt"
    path.write_text(text, encoding="utf-8")
    assert load_network(path).output.system.features == ("f1", "f2", "g1")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("agent a\n", "before any layer"),
        ("layer\nfeatures f\n", "outside an explicit agent"),
        ("layer\nagent a auto\n", "previous layer"),
        (DEMO_TEXT.replace("agent top auto", "agent top auto zz"), "zz"),
        ("layer\nwobble\n", "wobble"),
        ("layer\nagent a\nfeatures f\nobject 0\ntarget x\n", "malformed line 5"),
        ("layer\nagent a\ntarget 0\n", "no features"),
    ],
)
def test_load_network_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(NetworkError, match=fragment):
        load_network(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("layer\nagent a\nobject 1\ntarget 0\nlayer\nagent top auto\n",
         "line 2: agent 'a' has no features line"),
        ("layer\nagent a\nfeatures f\nobject 1\ntarget 0\nlayer\nagent top auto a zz\n",
         "line 7: unknown producer 'zz'"),
        ("layer\nagent a\nfeatures f g\nobject 1\ntarget 0\n",
         "line 2: row 0 has 1 cells, expected 2"),
        ("layer\nagent a\nfeatures f\nobject 1\ntarget 3\n",
         "line 2: agent 'a': target 3 outside universe"),
        ("layer\nagent a\nfeatures f f\nobject 1 1\ntarget 0\n",
         "line 2: duplicate feature names in ('f', 'f')"),
        # the malformed line 8 is read before the unbuildable agent of line 2
        ("layer\nagent a\ntarget 0\nlayer\nagent b\nfeatures g\nobject 0\ntarget x\n",
         "malformed line 8: 'target x'"),
        # a name keys the producer lists and the trace, so a second agent of
        # one name fails at its own line, in its layer or in the next
        (REPEATED_INPUT_NAME, "line 6: agent 'a' already defined at line 2"),
        (REPEATED_CONSUMER_NAME, "line 11: agent 'a' already defined at line 2"),
    ],
)
def test_load_network_names_the_line_of_an_agent_it_cannot_build(tmp_path, text, message):
    path = tmp_path / "bad.net"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(NetworkError) as err:
        load_network(path)
    assert str(err.value) == message


# quotes, escapes, comments and the whitespace that str.split takes and
# shlex does not
NET_LINE_CHARS = strat.sampled_from(
    list("ab0 \t'\"#\\\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000")
)


def split_outcome(split, line):
    try:
        return split(line)
    except ValueError as err:
        return ValueError, str(err)


@hypothesis.settings(max_examples=500)
@hypothesis.given(strat.text(NET_LINE_CHARS) | strat.text())
@hypothesis.example("object a 'b c' # d")
@hypothesis.example("object 'a")
@hypothesis.example("object a\xa0b")
def test_net_line_words_are_the_shlex_words(line):
    assert split_outcome(mereoml.net._words, line) == split_outcome(
        lambda text: shlex.split(text, comments=True), line
    )


# --- implicit product universes against the eager construction -------------


def ref_consumer_from(name, producers, selectors=None):
    """The eager construction: every product row and selector as a tuple."""
    if not producers:
        raise NetworkError("a consumer needs at least one producer")
    features = []
    for p in producers:
        for f in p.system.features:
            if f in features:
                raise NetworkError(f"feature {f!r} owned by two producers of {name!r}")
            features.append(f)
    if selectors is None:
        selectors = list(
            itertools.product(*(range(len(p.system.rows)) for p in producers))
        )
    rows = []
    for sel in selectors:
        if len(sel) != len(producers):
            raise NetworkError(f"selector {sel} has wrong arity for {name!r}")
        row = ()
        for p, i in zip(producers, sel):
            row += p.system.rows[i]
        rows.append(row)
    target_sets = [set(p.targets) for p in producers]
    targets = tuple(
        i
        for i, sel in enumerate(selectors)
        if all(x in ts for x, ts in zip(sel, target_sets))
    )
    return Agent(
        name,
        InformationSystem(tuple(features), tuple(rows)),
        targets,
        tuple(producers),
        tuple(tuple(sel) for sel in selectors),
    )


@strat.composite
def producer_agents(draw):
    """1-3 input agents of 1-5 rows, targets unsorted and with repeats."""
    agents = []
    for k in range(draw(strat.integers(1, 3))):
        features = tuple(f"p{k}f{j}" for j in range(draw(strat.integers(1, 3))))
        n = draw(strat.integers(1, 5))
        rows = tuple(
            tuple(draw(strat.sampled_from("012")) for _ in features) for _ in range(n)
        )
        targets = tuple(draw(strat.lists(strat.integers(0, n - 1), min_size=1, max_size=6)))
        agents.append(Agent(f"p{k}", InformationSystem(features, rows), targets))
    return agents


def assert_same_sequence(lazy, eager):
    assert isinstance(lazy, CartesianRows) and isinstance(eager, tuple)
    n = len(eager)
    assert len(lazy) == n
    assert [lazy[i] for i in range(n)] == list(eager)
    assert [lazy[-i] for i in range(1, n + 1)] == [eager[-i] for i in range(1, n + 1)]
    for i in (n, n + 3, -n - 1):
        with pytest.raises(IndexError):
            lazy[i]
    assert tuple(lazy) == eager
    assert lazy == eager and eager == lazy
    assert not (lazy != eager) and not (eager != lazy)
    assert hash(lazy) == hash(eager)
    if n > 1:
        other = eager[:-1] + (("x",),)
        assert lazy != other and other != lazy


@hypothesis.given(producer_agents(), strat.data())
def test_product_consumer_matches_eager_reference(producers, data):
    lazy = consumer_from("top", producers)
    eager = ref_consumer_from("top", producers)
    assert_same_sequence(lazy.system.rows, eager.system.rows)
    assert_same_sequence(lazy.selectors, eager.selectors)
    assert lazy.targets == eager.targets
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager)

    # explicit selectors in range: the same agent, or the same error when
    # no selector fuses only producer targets
    selector = strat.tuples(*(strat.integers(0, len(p.system.rows) - 1) for p in producers))
    selectors = data.draw(strat.lists(selector, max_size=8))
    outcomes = []
    for build in consumer_from, ref_consumer_from:
        try:
            outcomes.append(build("top", producers, selectors))
        except NetworkError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]

    inc_lazy = LukasiewiczInclusion(lazy.system)
    inc_eager = LukasiewiczInclusion(eager.system)
    assert np.array_equal(inc_lazy.dis_counts, inc_eager.dis_counts)
    objects = strat.integers(0, len(eager.system.rows) - 1)
    x, y = data.draw(objects), data.draw(objects)
    assert inc_lazy.degree(x, y) == inc_eager.degree(x, y)

    members = data.draw(strat.frozensets(objects, min_size=1))
    feature = data.draw(strat.sampled_from(eager.system.features))
    phi = Atom(feature, data.draw(strat.sampled_from("012")))
    assert extension(members, phi, lazy.system) == extension(members, phi, eager.system)

    if len(producers) == 2:
        g = []
        for p in producers:
            ids = strat.integers(0, len(p.system.rows) - 1)
            g.append(Granule(data.draw(ids), Fraction(1, 2), data.draw(strat.frozensets(ids))))
        assert fuse_granules(*g, lazy) == fuse_granules(*g, eager)


def product_net_text(rows, seed=0):
    """Four 3-feature input agents of ``rows`` rows, two auto consumers over
    pairs of them and an auto top over both: rows**4 top rows."""
    rng = random.Random(seed)
    lines = ["layer"]
    for a in range(4):
        lines.append(f"agent in{a}")
        lines.append("features " + " ".join(f"f{a}_{j}" for j in range(3)))
        for _ in range(rows):
            lines.append("object " + " ".join(f"v{rng.randrange(4)}" for _ in range(3)))
        for t in rng.sample(range(rows), 3):
            lines.append(f"target {t}")
    lines += ["layer", "agent mid0 auto in0 in1", "agent mid1 auto in2 in3"]
    lines += ["layer", "agent top auto"]
    return "\n".join(lines) + "\n"


def test_net_output_matches_eager_reference_on_a_16_to_the_4_net(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "big.net"
    path.write_text(product_net_text(16), encoding="utf-8")
    argv = ["net", str(path)]
    for row in ("v0,v1,v2", "v3,v3,v0", "v1,v2,v1", "v2,v0,v3"):
        argv += ["--input", row]
    outputs = []
    for build in (consumer_from, ref_consumer_from):
        monkeypatch.setattr(mereoml.net, "consumer_from", build)
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert len(load_network(path).output.system.rows) == 16**4


def test_load_network_keeps_the_product_implicit(tmp_path):
    path = tmp_path / "big.net"
    path.write_text(product_net_text(16), encoding="utf-8")
    load_network(path)  # warm imports and caches outside the measurement
    net, peak = traced_peak(load_network, path)
    assert sum(len(a.system.rows) for layer in net.layers for a in layer) == 66_112
    assert peak < 1_000_000
