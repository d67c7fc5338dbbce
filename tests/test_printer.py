"""Pretty-printer round-trip tests: parse -> pretty -> parse must be
structurally stable, and the reprinted source must compile and behave
identically."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY, USER_ENUM
from repro.apps import SUITE
from repro.compiler import CompilerSession
from repro.lime import parse
from repro.lime.printer import pretty
from repro.runtime import Runtime


def roundtrip(source: str) -> "tuple[str, str]":
    first = pretty(parse(source))
    second = pretty(parse(first))
    return first, second


class TestIdempotence:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_suite_roundtrips(self, name):
        first, second = roundtrip(SUITE[name].source)
        assert first == second, name

    def test_figure1_roundtrips(self):
        first, second = roundtrip(FIGURE1)
        assert first == second

    def test_enum_roundtrips(self):
        first, second = roundtrip(USER_ENUM)
        assert first == second

    def test_saxpy_roundtrips(self):
        first, second = roundtrip(SAXPY)
        assert first == second


class TestReprintedProgramsBehave:
    def test_reprinted_figure1_runs_identically(self):
        from repro.values import KIND_BIT, ValueArray, parse_bit_literal

        reprinted = pretty(parse(FIGURE1))
        original_rt = Runtime(CompilerSession().compile(FIGURE1))
        reprint_rt = Runtime(CompilerSession().compile(reprinted))
        bits = ValueArray(KIND_BIT, parse_bit_literal("110010111"))
        assert original_rt.call(
            "Bitflip.taskFlip", [bits]
        ) == reprint_rt.call("Bitflip.taskFlip", [bits])

    @pytest.mark.parametrize(
        "name", ["crc8", "black_scholes", "running_sum", "hybrid"]
    )
    def test_reprinted_apps_run_identically(self, name):
        entry, args = SUITE[name].default_args()
        reprinted = pretty(parse(SUITE[name].source))
        original = Runtime(CompilerSession().compile(SUITE[name].source)).call(
            entry, args
        )
        again = Runtime(CompilerSession().compile(reprinted)).call(entry, args)
        if isinstance(original, float):
            assert again == pytest.approx(original)
        else:
            assert again == original


class TestRenderingDetails:
    def test_bit_literal_preserved(self):
        source = "class T { static bit[[]] m() { return 110010111b; } }"
        text = pretty(parse(source))
        assert "110010111b" in text

    def test_float_suffix_preserved(self):
        source = "class T { static float m() { return 2.5f; } }"
        assert "2.5f" in pretty(parse(source))

    def test_long_suffix_preserved(self):
        source = "class T { static long m() { return 42L; } }"
        assert "42L" in pretty(parse(source))

    def test_generic_sink_call(self):
        text = pretty(parse(FIGURE1))
        assert ".<bit>sink()" in text

    def test_relocation_brackets(self):
        text = pretty(parse(FIGURE1))
        assert "([ task flip ])" in text

    def test_operator_method(self):
        text = pretty(parse(USER_ENUM))
        assert "color ~ this {" in text

    def test_string_escapes(self):
        source = r'class T { static void m() { println("a\nb\"c"); } }'
        text = pretty(parse(source))
        assert r'"a\nb\"c"' in text
        # And it reparses to the same string.
        again = pretty(parse(text))
        assert again == text


class TestPrinterProperty:
    def test_random_expression_roundtrip(self):
        from hypothesis import given, settings
        from tests.test_properties import int_exprs

        @settings(max_examples=40, deadline=None)
        @given(int_exprs())
        def check(expr_text):
            source = (
                "class P { local static int f(int a, int b, int c) "
                f"{{ return {expr_text}; }} }}"
            )
            first = pretty(parse(source))
            second = pretty(parse(first))
            assert first == second

        check()
