"""Unit and property tests for the expression IR."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdl import expr as E
from repro.hdl.bitvec import from_signed, to_signed
from repro.hdl.netlist import ModuleState
from repro.hdl.sim import evaluate

words8 = st.integers(min_value=0, max_value=255)


def ev(expression, **inputs):
    """Evaluate a closed expression (inputs by name)."""
    return evaluate([expression], ModuleState({}, {}), inputs)[0]


class TestInterning:
    def test_const_interned(self):
        assert E.const(8, 5) is E.const(8, 5)
        assert E.const(8, 5) is not E.const(9, 5)

    def test_ops_interned(self):
        x = E.input_port("x", 8)
        y = E.input_port("y", 8)
        assert E.add(x, y) is E.add(x, y)
        assert E.add(x, y) is not E.add(y, x)

    def test_reg_read_interned(self):
        assert E.reg_read("r", 4) is E.reg_read("r", 4)

    def test_mux_interned(self):
        s = E.input_port("s", 1)
        x = E.input_port("x", 8)
        y = E.input_port("y", 8)
        assert E.mux(s, x, y) is E.mux(s, x, y)

    def test_scoped_intern_bounds_growth(self):
        outside = E.add(E.input_port("si_a", 8), E.input_port("si_b", 8))
        before = E.intern_table_size()
        with E.scoped_intern():
            inside = E.mul(outside, E.const(8, 3))
            assert E.intern_table_size() > before
            # pre-existing nodes still intern to themselves in-scope
            assert E.add(E.input_port("si_a", 8), E.input_port("si_b", 8)) is outside
        # the scope's additions are gone, nothing else was touched
        assert E.intern_table_size() == before
        assert E.add(E.input_port("si_a", 8), E.input_port("si_b", 8)) is outside
        # a fresh build of the in-scope node is a new object
        assert E.mul(outside, E.const(8, 3)) is not inside

    def test_scoped_intern_restores_on_error(self):
        before = E.intern_table_size()
        with pytest.raises(RuntimeError):
            with E.scoped_intern():
                E.sub(E.input_port("si_c", 16), E.const(16, 7))
                raise RuntimeError("mid-scope failure")
        assert E.intern_table_size() == before


class TestWidthChecking:
    def test_binary_width_mismatch(self):
        with pytest.raises(ValueError):
            E.add(E.input_port("x", 8), E.input_port("y", 4))

    def test_mux_select_width(self):
        with pytest.raises(ValueError):
            E.mux(E.input_port("s", 2), E.const(8, 0), E.const(8, 0))

    def test_mux_arm_mismatch(self):
        with pytest.raises(ValueError):
            E.mux(E.input_port("s", 1), E.const(8, 0), E.const(4, 0))

    def test_slice_bounds(self):
        x = E.input_port("x", 8)
        with pytest.raises(ValueError):
            E.bits(x, 0, 8)
        with pytest.raises(ValueError):
            E.bits(x, 5, 4)

    def test_extend_shrink(self):
        x = E.input_port("x", 8)
        with pytest.raises(ValueError):
            E.zext(x, 4)
        with pytest.raises(ValueError):
            E.sext(x, 4)

    def test_comparison_result_is_one_bit(self):
        x = E.input_port("x", 8)
        assert E.eq(x, x).width == 1
        assert E.ult(x, E.const(8, 4)).width == 1


class TestConstantFolding:
    def test_arith_folds(self):
        assert isinstance(E.add(E.const(8, 3), E.const(8, 4)), E.Const)
        assert E.add(E.const(8, 250), E.const(8, 10)).value == 4

    def test_identities(self):
        x = E.input_port("x", 8)
        zero = E.const(8, 0)
        ones = E.const(8, 0xFF)
        assert E.add(x, zero) is x
        assert E.band(x, ones) is x
        assert E.band(x, zero) is zero
        assert E.bor(x, zero) is x
        assert E.bxor(x, zero) is x
        assert E.sub(x, zero) is x

    def test_self_identities(self):
        x = E.input_port("x", 8)
        assert E.band(x, x) is x
        assert E.bor(x, x) is x
        assert isinstance(E.bxor(x, x), E.Const)
        assert E.bxor(x, x).value == 0
        assert E.eq(x, x).value == 1
        assert E.ne(x, x).value == 0

    def test_double_not(self):
        x = E.input_port("x", 8)
        assert E.bnot(E.bnot(x)) is x

    def test_mux_const_select(self):
        x = E.input_port("x", 8)
        y = E.input_port("y", 8)
        assert E.mux(E.const(1, 1), x, y) is x
        assert E.mux(E.const(1, 0), x, y) is y

    def test_mux_same_arms(self):
        s = E.input_port("s", 1)
        x = E.input_port("x", 8)
        assert E.mux(s, x, x) is x

    def test_mux_boolean_simplification(self):
        s = E.input_port("s", 1)
        assert E.mux(s, E.const(1, 1), E.const(1, 0)) is s

    def test_slice_of_slice(self):
        x = E.input_port("x", 16)
        inner = E.bits(x, 4, 11)
        outer = E.bits(inner, 2, 5)
        assert isinstance(outer, E.Slice)
        assert outer.a is x
        assert outer.low == 6 and outer.high == 9

    def test_full_slice_is_identity(self):
        x = E.input_port("x", 8)
        assert E.bits(x, 0, 7) is x

    def test_concat_flattening(self):
        x = E.input_port("x", 4)
        nested = E.concat(E.concat(x, x), x)
        assert isinstance(nested, E.Concat)
        assert len(nested.parts) == 3

    def test_concat_of_consts(self):
        joined = E.concat(E.const(4, 0xA), E.const(4, 0xB))
        assert isinstance(joined, E.Const)
        assert joined.value == 0xAB

    def test_shift_by_zero(self):
        x = E.input_port("x", 8)
        assert E.shl(x, E.const(3, 0)) is x

    def test_redor_of_const(self):
        assert E.redor(E.const(8, 0)).value == 0
        assert E.redor(E.const(8, 4)).value == 1
        assert E.redand(E.const(8, 0xFF)).value == 1
        assert E.redxor(E.const(8, 0b111)).value == 1


class TestHelpers:
    def test_all_of_empty(self):
        assert E.all_of([]).value == 1

    def test_any_of_empty(self):
        assert E.any_of([]).value == 0

    def test_implies(self):
        a = E.input_port("a", 1)
        assert ev(E.implies(a, a), a=0) == 1
        assert ev(E.implies(a, E.const(1, 0)), a=1) == 0
        assert ev(E.implies(a, E.const(1, 0)), a=0) == 1

    def test_replicate(self):
        bit = E.input_port("b", 1)
        assert E.replicate(bit, 4).width == 4
        assert ev(E.replicate(bit, 4), b=1) == 0xF

    def test_walk_postorder(self):
        x = E.input_port("walkx", 8)
        y = E.add(x, E.const(8, 1))
        order = E.walk([y])
        assert order.index(x) < order.index(y)

    def test_walk_dedup(self):
        x = E.input_port("walkdup", 8)
        expression = E.add(x, x)
        order = E.walk([expression])
        assert order.count(x) == 1

    def test_walk_new_stops_at_memoised_nodes(self):
        x = E.input_port("walknx", 8)
        y = E.input_port("walkny", 8)
        shared = E.add(x, E.const(8, 1))
        left = E.bxor(shared, y)
        right = E.band(shared, E.sub(x, y))
        assert E.walk_new([left, right], {}) == E.walk([left, right])
        memo = {id(node) for node in E.walk([left])}
        fresh = E.walk_new([right], memo)
        # only what ``left`` did not reach, children first, each once
        assert fresh == [
            node for node in E.walk([right]) if id(node) not in memo
        ]
        assert fresh[-1] is right and shared not in fresh and x not in fresh

    def test_leaf_queries(self):
        expression = E.add(
            E.reg_read("r1", 8), E.mem_read("m", E.reg_read("a", 2), 8)
        )
        assert E.reg_reads([expression]) == {"r1", "a"}
        assert E.mem_reads([expression]) == {"m"}


class TestSemantics:
    """Folded constants must agree with the simulator's evaluation."""

    @given(words8, words8)
    def test_fold_matches_eval_add(self, a, b):
        folded = E.add(E.const(8, a), E.const(8, b))
        assert folded.value == (a + b) & 0xFF

    @given(words8, words8)
    def test_fold_matches_eval_comparisons(self, a, b):
        assert E.ult(E.const(8, a), E.const(8, b)).value == int(a < b)
        assert E.slt(E.const(8, a), E.const(8, b)).value == int(
            to_signed(a, 8) < to_signed(b, 8)
        )
        assert E.ule(E.const(8, a), E.const(8, b)).value == int(a <= b)
        assert E.sle(E.const(8, a), E.const(8, b)).value == int(
            to_signed(a, 8) <= to_signed(b, 8)
        )

    @given(words8, st.integers(min_value=0, max_value=15))
    def test_fold_matches_eval_shifts(self, a, amount):
        assert E.shl(E.const(8, a), E.const(4, amount)).value == (
            (a << min(amount, 8)) & 0xFF
        )
        assert E.lshr(E.const(8, a), E.const(4, amount)).value == (
            a >> min(amount, 8)
        )
        assert E.ashr(E.const(8, a), E.const(4, amount)).value == from_signed(
            to_signed(a, 8) >> min(amount, 8), 8
        )

    @given(words8)
    def test_sext_const(self, a):
        assert E.sext(E.const(8, a), 16).value == from_signed(to_signed(a, 8), 16)

    @given(words8)
    def test_neg_fold(self, a):
        assert E.neg(E.const(8, a)).value == (-a) & 0xFF
