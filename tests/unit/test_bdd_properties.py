"""Property-based tests: BDD operations vs. a brute-force truth table."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import FALSE, TRUE, BddManager

N_VARS = 4


def _truth_table(m, f):
    """Evaluate f on all 2^N_VARS assignments."""
    rows = []
    for bits in itertools.product([False, True], repeat=N_VARS):
        rows.append(m.eval(f, dict(enumerate(bits))))
    return tuple(rows)


@st.composite
def bdd_exprs(draw, depth=4):
    """A random expression tree over N_VARS variables, as a build plan."""
    if depth == 0 or draw(st.booleans()):
        return ("var", draw(st.integers(min_value=0, max_value=N_VARS - 1)))
    op = draw(st.sampled_from(["and", "or", "xor", "not", "ite", "const"]))
    if op == "const":
        return ("const", draw(st.booleans()))
    if op == "not":
        return ("not", draw(bdd_exprs(depth=depth - 1)))
    if op == "ite":
        return ("ite", draw(bdd_exprs(depth=depth - 1)),
                draw(bdd_exprs(depth=depth - 1)),
                draw(bdd_exprs(depth=depth - 1)))
    return (op, draw(bdd_exprs(depth=depth - 1)),
            draw(bdd_exprs(depth=depth - 1)))


def _build(m, plan):
    kind = plan[0]
    if kind == "var":
        return m.var(plan[1])
    if kind == "const":
        return TRUE if plan[1] else FALSE
    if kind == "not":
        return m.not_(_build(m, plan[1]))
    if kind == "ite":
        return m.ite(_build(m, plan[1]), _build(m, plan[2]),
                     _build(m, plan[3]))
    if kind == "and":
        return m.and_(_build(m, plan[1]), _build(m, plan[2]))
    return m.or_(_build(m, plan[1]), _build(m, plan[2]))


def _eval_plan(plan, bits):
    kind = plan[0]
    if kind == "var":
        return bits[plan[1]]
    if kind == "const":
        return plan[1]
    if kind == "not":
        return not _eval_plan(plan[1], bits)
    if kind == "ite":
        return (_eval_plan(plan[2], bits) if _eval_plan(plan[1], bits)
                else _eval_plan(plan[3], bits))
    if kind == "and":
        return _eval_plan(plan[1], bits) and _eval_plan(plan[2], bits)
    return _eval_plan(plan[1], bits) or _eval_plan(plan[2], bits)


def _fresh():
    m = BddManager()
    for i in range(N_VARS):
        m.new_var(f"x{i}")
    return m


@settings(max_examples=200, deadline=None)
@given(bdd_exprs())
def test_bdd_matches_truth_table(plan):
    m = _fresh()
    f = _build(m, plan)
    for bits in itertools.product([False, True], repeat=N_VARS):
        expected = _eval_plan(plan, bits)
        assert m.eval(f, dict(enumerate(bits))) == expected


@settings(max_examples=100, deadline=None)
@given(bdd_exprs(), bdd_exprs())
def test_canonicity(plan_a, plan_b):
    """Semantically equal functions get the same node id."""
    m = _fresh()
    fa, fb = _build(m, plan_a), _build(m, plan_b)
    same = _truth_table(m, fa) == _truth_table(m, fb)
    assert (fa == fb) == same


@settings(max_examples=100, deadline=None)
@given(bdd_exprs())
def test_sat_count_matches_truth_table(plan):
    m = _fresh()
    f = _build(m, plan)
    expected = sum(_truth_table(m, f))
    assert m.sat_count(f, nvars=N_VARS) == expected


@settings(max_examples=100, deadline=None)
@given(bdd_exprs())
def test_sat_one_is_satisfying(plan):
    m = _fresh()
    f = _build(m, plan)
    cube = m.sat_one(f)
    if cube is None:
        assert f == FALSE
    else:
        assert m.eval(f, cube)


@settings(max_examples=100, deadline=None)
@given(bdd_exprs(), st.integers(min_value=0, max_value=N_VARS - 1),
       st.booleans())
def test_restrict_is_cofactor(plan, level, value):
    m = _fresh()
    f = _build(m, plan)
    g = m.restrict(f, level, value)
    for bits in itertools.product([False, True], repeat=N_VARS):
        assignment = dict(enumerate(bits))
        fixed = dict(assignment)
        fixed[level] = value
        assert m.eval(g, assignment) == m.eval(f, fixed)
    assert level not in m.support(g)


@settings(max_examples=100, deadline=None)
@given(bdd_exprs(), st.integers(min_value=0, max_value=N_VARS - 1),
       bdd_exprs())
def test_compose_semantics(plan_f, level, plan_g):
    m = _fresh()
    f, g = _build(m, plan_f), _build(m, plan_g)
    h = m.compose(f, level, g)
    for bits in itertools.product([False, True], repeat=N_VARS):
        assignment = dict(enumerate(bits))
        inner = m.eval(g, assignment)
        assignment_sub = dict(assignment)
        assignment_sub[level] = inner
        assert m.eval(h, assignment) == m.eval(f, assignment_sub)


@settings(max_examples=100, deadline=None)
@given(bdd_exprs(), st.sets(st.integers(min_value=0, max_value=N_VARS - 1)))
def test_exists_forall_duality(plan, levels):
    m = _fresh()
    f = _build(m, plan)
    ex = m.exists(f, levels)
    fa = m.forall(f, levels)
    assert fa == m.not_(m.exists(m.not_(f), levels))
    # forall implies exists
    assert m.implies(fa, ex) == TRUE


def _care_rows(m, c):
    return [dict(enumerate(bits))
            for bits in itertools.product([False, True], repeat=N_VARS)
            if m.eval(c, dict(enumerate(bits)))]


@settings(max_examples=200, deadline=None)
@given(bdd_exprs(), bdd_exprs())
def test_constrain_agrees_on_care_set(plan_f, plan_c):
    m = _fresh()
    f = _build(m, plan_f)
    c = _build(m, plan_c)
    g = m.constrain(f, c)
    for row in _care_rows(m, c):
        assert m.eval(g, row) == m.eval(f, row)
    assert m.support(g) <= m.support(f) | m.support(c)


@settings(max_examples=100, deadline=None)
@given(bdd_exprs(), bdd_exprs(), bdd_exprs())
def test_constrain_distributes_over_operators(plan_f, plan_g, plan_c):
    """One care set projects every operand the same way, so an operator
    applied to constrained operands is the constrained result — with
    the store's one memo shared by both operands, as the four-valued
    layer has it."""
    m = _fresh()
    f, g, c = (_build(m, plan) for plan in (plan_f, plan_g, plan_c))
    if c == FALSE:
        return
    fc = m.constrain(f, c)
    gc = m.constrain(g, c)
    assert fc == m.constrain(f, c)
    assert m.and_(fc, gc) == m.constrain(m.and_(f, g), c)
    assert m.xor(fc, gc) == m.constrain(m.xor(f, g), c)


def test_constrain_edge_cases():
    m = _fresh()
    a, b, c = m.var(0), m.var(1), m.var(2)
    f = m.ite(a, b, c)
    care = m.or_(a, m.not_(b))
    assert m.constrain(f, TRUE) == f
    assert m.constrain(f, FALSE) == FALSE
    assert m.constrain(care, care) == TRUE
    assert m.constrain(m.not_(care), care) == FALSE
    assert m.constrain(TRUE, care) == TRUE
    assert m.constrain(FALSE, care) == FALSE
    # outside the care set the variable it pins drops out entirely
    assert m.constrain(f, a) == b
    assert m.constrain(f, m.not_(a)) == c
    # no computed table is touched
    g = m.xor(f, m.var(3))
    expected = m.xor(c, m.var(3))
    not_a = m.not_(a)
    before = m.cache_stats()
    assert m.constrain(g, not_a) == expected
    after = m.cache_stats()
    moved = {key for key in before if before[key] != after[key]}
    assert moved <= {"peak_nodes", "nodes", "total_nodes"}
