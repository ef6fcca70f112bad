"""Property tests: the monomial-major dense kernel against its oracle.

``evaluate_matrix`` folds each monomial's factors one column at a time
(``_fold_columns``); the row-major kernel it replaced
(``tests/oracles/dense_matrix_kernel.py``) combined them with ``np.prod``,
``np.sum`` and ``np.all`` along the factor axis.  Monomials here are 0–12
factors wide with exponents 1–3, and valuations mix ±0.0, ``inf`` and
zero bases, so every reduction's order and every special value is on the
tested path.  The stated agreement:

* bool — exact at every width (``and``/``or`` of 0/1 values);
* real — exact at every width (``np.prod`` also folds left to right, and
  both sides raise powers through ``np.power``'s vector loop);
* tropical — exact below width 8; from 8 on ``np.sum`` sums pairwise, so
  a monomial's cost may differ by its rounding bound
  ``(w − 1)·eps·Σ|terms|`` on each side, and a minimum moves by at most
  the largest such difference.

The dense kernel and the segment delta kernel fold factors through the
same helper, so on tropical and bool (whose reductions are exact) a dense
row and the sparse row for the same cells are ``array_equal`` at every
width.  A real row is bit-identical however many rows share its batch,
and to :meth:`evaluate_vector`: NumPy's ``power`` rounds by layout, and
the kernels keep every power on one loop.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles.dense_matrix_kernel import dense_evaluate_matrix

from repro.batch import DeltaPlan
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet

NAMES = [f"x{i:02d}" for i in range(14)]
EPS = np.finfo(np.float64).eps
#: Below this width ``np.sum`` folds left to right, as the kernel does.
PAIRWISE_WIDTH = 8

#: Finite magnitudes stay small so no product or sum overflows.
_SPECIAL = st.sampled_from([0.0, -0.0, float("inf")])


def _values(semiring):
    low = -3.0 if semiring == "real" else -5.0
    high = 3.0 if semiring == "real" else 10.0
    finite = st.floats(min_value=low, max_value=high, allow_nan=False)
    return st.one_of(_SPECIAL, finite, finite)


@st.composite
def wide_provenance(draw):
    result = ProvenanceSet()
    for key in range(draw(st.integers(min_value=1, max_value=3))):
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            width = draw(st.integers(min_value=0, max_value=12))
            names = draw(
                st.lists(
                    st.sampled_from(NAMES),
                    min_size=width,
                    max_size=width,
                    unique=True,
                )
            )
            monomial = Monomial(
                {name: draw(st.integers(min_value=1, max_value=3)) for name in names}
            )
            coefficient = draw(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0]),
                    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                )
            )
            terms[monomial] = coefficient
        result[(f"g{key}",)] = Polynomial(terms)
    return result


@st.composite
def dense_cases(draw, semiring):
    provenance = draw(wide_provenance())
    compiled = resolve_backend(semiring).compile(provenance)
    width = len(compiled.variables)
    values = _values(semiring)
    base = np.array([draw(values) for _ in range(width)], dtype=np.float64)
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        columns = draw(
            st.lists(st.integers(min_value=0, max_value=max(width - 1, 0)), unique=True)
            if width
            else st.just([])
        )
        pairs.append((columns, [draw(values) for _ in columns]))
    return compiled, base, pairs


def _matrix(base, pairs):
    matrix = np.tile(base, (len(pairs), 1))
    for s, (columns, values) in enumerate(pairs):
        matrix[s, columns] = values
    return matrix


def _tropical_slack(compiled, matrix):
    """Per cell, the largest rounding gap a pairwise ``np.sum`` may open
    against a left-to-right fold, over the finite wide monomials."""
    slack = np.zeros((matrix.shape[0], len(compiled.keys)))
    for group in compiled._groups:
        width = group.indices.shape[1]
        if width < PAIRWISE_WIDTH:
            continue
        terms = np.abs(matrix[:, group.indices] * group.exponents)
        magnitude = terms.sum(axis=-1) + np.abs(group.coefficients)
        bound = 2 * (width - 1) * EPS * np.where(np.isfinite(magnitude), magnitude, 0.0)
        rows = np.repeat(
            group.segment_rows,
            np.diff(np.append(group.segment_starts, len(group.coefficients))),
        )
        for column in range(slack.shape[1]):
            owned = rows == column
            if owned.any():
                slack[:, column] = np.maximum(
                    slack[:, column], bound[:, owned].max(axis=1)
                )
    return slack


def _assert_matches_oracle(compiled, matrix):
    # ``0 × inf`` and ``inf − inf`` are NaN on both sides, by design.
    with np.errstate(invalid="ignore"):
        got = compiled.evaluate_matrix(matrix)
        expected = dense_evaluate_matrix(compiled, matrix)
    assert got.shape == expected.shape
    if compiled.backend_name != "tropical":
        np.testing.assert_array_equal(got, expected)
        return
    finite = np.isfinite(expected)
    np.testing.assert_array_equal(got[~finite], expected[~finite])
    slack = _tropical_slack(compiled, matrix)
    assert np.all(np.abs(got[finite] - expected[finite]) <= slack[finite])
    narrow = all(g.indices.shape[1] < PAIRWISE_WIDTH for g in compiled._groups)
    if narrow:
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(dense_cases("real"))
def test_real_dense_matches_the_oracle(case):
    compiled, base, pairs = case
    _assert_matches_oracle(compiled, _matrix(base, pairs))


@settings(max_examples=150, deadline=None)
@given(dense_cases("tropical"))
def test_tropical_dense_matches_the_oracle(case):
    compiled, base, pairs = case
    _assert_matches_oracle(compiled, _matrix(base, pairs))


@settings(max_examples=150, deadline=None)
@given(dense_cases("bool"))
def test_bool_dense_matches_the_oracle(case):
    compiled, base, pairs = case
    _assert_matches_oracle(compiled, _matrix(base, pairs))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["tropical", "bool"]).flatmap(dense_cases))
def test_dense_and_segment_kernel_agree_exactly(case):
    compiled, base, pairs = case
    dense = compiled.evaluate_matrix(_matrix(base, pairs))
    sparse = compiled.evaluate_deltas(DeltaPlan.from_pairs(base, pairs))
    np.testing.assert_array_equal(dense, sparse)
    np.testing.assert_array_equal(
        compiled.evaluate_matrix(base[np.newaxis, :])[0],
        compiled.baseline_totals(base),
    )


@settings(max_examples=100, deadline=None)
@given(dense_cases("real"))
def test_real_rows_do_not_depend_on_the_batch(case):
    compiled, base, pairs = case
    matrix = _matrix(base, pairs)
    with np.errstate(invalid="ignore"):
        whole = compiled.evaluate_matrix(matrix)
        for s, row in enumerate(matrix):
            np.testing.assert_array_equal(
                compiled.evaluate_matrix(row[np.newaxis, :])[0], whole[s]
            )
            np.testing.assert_array_equal(
                compiled.evaluate_vector(dict(zip(compiled.variables, row))),
                whole[s],
            )


def test_real_squares_round_alike_at_any_row_count():
    """``x²`` for an ``x`` whose exact square and NumPy's vector ``pow``
    differ in the last bit: a lone monomial of width 6, and a lone
    width-1 monomial (whose broadcast exponent is stride 0)."""
    x = 2.241114358265726
    provenance = ProvenanceSet()
    provenance[("wide",)] = Polynomial(
        {Monomial({"a": 1, "b": 1, "x": 2, "c": 1, "d": 1, "e": 1}): 1.0}
    )
    provenance[("lone",)] = Polynomial({Monomial({"y": 2}): 1.0})
    compiled = resolve_backend("real").compile(provenance)
    valuation = {name: 1.0 for name in compiled.variables}
    valuation.update(x=x, y=x)
    row = compiled.values_vector(valuation)
    vector = compiled.evaluate_vector(valuation)
    for rows in (1, 2, 7, 64):
        matrix = np.tile(row, (rows, 1))
        got = compiled.evaluate_matrix(matrix)
        np.testing.assert_array_equal(got, np.tile(vector, (rows, 1)))
        np.testing.assert_array_equal(got, dense_evaluate_matrix(compiled, matrix))


def test_blocks_split_on_segment_boundaries(monkeypatch):
    """With a one-cell block bound every segment is its own block; the
    result is the same as one unbounded block."""
    from repro.provenance.backends import numeric

    provenance = ProvenanceSet()
    for key in range(4):
        provenance[(f"g{key}",)] = Polynomial(
            {
                Monomial({NAMES[(key + i) % 14]: 1, NAMES[(key + 2 * i + 1) % 14]: 2}): 1.0 + i
                for i in range(5)
            }
        )
    rng = np.random.default_rng(3)
    for semiring in ("real", "tropical", "bool"):
        compiled = resolve_backend(semiring).compile(provenance)
        matrix = rng.uniform(-2.0, 2.0, size=(7, len(compiled.variables)))
        whole = compiled.evaluate_matrix(matrix)
        monkeypatch.setattr(numeric, "_DELTA_BLOCK_CELLS", 1)
        np.testing.assert_array_equal(compiled.evaluate_matrix(matrix), whole)
        np.testing.assert_array_equal(whole, dense_evaluate_matrix(compiled, matrix))
        monkeypatch.undo()
