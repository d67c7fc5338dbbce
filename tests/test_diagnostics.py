"""Diagnostic quality: every compile error carries a source position
and a readable message."""

import pytest

from repro.errors import (
    IsolationError,
    LimeSyntaxError,
    LimeTypeError,
    TaskGraphError,
)
from repro.lime import analyze, parse


def error_for(source, exc=LimeTypeError):
    with pytest.raises(exc) as info:
        analyze(source)
    return str(info.value)


class TestPositions:
    def test_syntax_error_position(self):
        with pytest.raises(LimeSyntaxError) as info:
            parse("class T {\n  static void m() {\n    int x = ;\n  }\n}")
        message = str(info.value)
        assert ":3:" in message  # line 3

    def test_type_error_position(self):
        message = error_for(
            "class T {\n  static int f() {\n    return true;\n  }\n}"
        )
        assert ":3:" in message

    def test_filename_propagates(self):
        with pytest.raises(LimeSyntaxError) as info:
            parse("class {", filename="broken.lime")
        assert "broken.lime" in str(info.value)


class TestMessageQuality:
    def test_unknown_name_names_the_identifier(self):
        message = error_for(
            "class T { static int f() { return missing; } }"
        )
        assert "missing" in message

    def test_isolation_error_names_both_methods(self):
        message = error_for(
            """
            class T {
                static int g(int x) { return x; }
                local static int f(int x) { return g(x); }
            }
            """,
            IsolationError,
        )
        assert "T.f" in message and "T.g" in message

    def test_connect_mismatch_shows_types(self):
        message = error_for(
            """
            class T {
                local static bit f(bit b) { return b; }
                local static int g(int x) { return x; }
                static void m(bit[[]] xs, int[] out) {
                    var t = xs.source(1) => task f => task g => out.sink();
                }
            }
            """,
            TaskGraphError,
        )
        assert "bit" in message and "int" in message

    def test_arity_mismatch_counts(self):
        message = error_for(
            """
            class T {
                static int f(int a, int b) { return a + b; }
                static int g() { return f(1); }
            }
            """
        )
        assert "2" in message and "1" in message

    def test_value_array_store_mentions_read_only(self):
        message = error_for(
            "class T { static void m(int[[]] xs) { xs[0] = 1; } }",
            IsolationError,
        )
        assert "read-only" in message

    def test_unknown_type_named(self):
        message = error_for(
            "class T { static Widget m() { return 0; } }"
        )
        assert "Widget" in message

    def test_reserved_math_method_message(self):
        message = error_for(
            "class T { static double m() { return Math.cbrt(8.0); } }"
        )
        assert "cbrt" in message


class TestShapeDiagnostics:
    def test_shape_error_is_compile_time(self):
        # "the programmer is informed at compile time with an
        # appropriate error message" (Section 3).
        from repro.compiler import CompilerSession

        with pytest.raises(TaskGraphError) as info:
            CompilerSession().compile(
                """
                class T {
                    local static bit f(bit b) { return b; }
                    static void m(bit[[]] xs, bit[] out, boolean c) {
                        if (c) {
                            var t = xs.source(1) => ([ task f ]) => out.sink();
                            t.finish();
                        }
                    }
                }
                """
            )
        message = str(info.value)
        assert "T.m" in message
        assert "relocation" in message
