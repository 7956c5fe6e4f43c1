"""Method extraction from tolerantly-lexed Java sources."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import java_text
from codesum.corpus import RawMethod, tokenize_method, tokenize_snippet
from codesum.corpus.javalex import _TOKEN, extract_methods, lex
from codesum.errors import UnbalancedBraces


def names(source):
    return [m.name for m in extract_methods(source, "T.java", "proj")]


def lex_by_position(text):
    """The lexer as a position loop: match at each offset, skip one on a miss."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            pos += 1
            continue
        pos = m.end()
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(m.group())
    return tokens


_PIECES = st.sampled_from([
    "foo", "Bar_1", "$x", "class", " ", "\n", "\t", "0x1F", "1_000L", ".5e3f", "3.",
    "1e", "0b", ">>>=", ">>", "->", "::", "...", "++", "!=", "{", "}", "(", ")", ";",
    ".", "@", '"', "'", "\\", '"ok\\"', "'c'", "/", "*", "//", "/*", "*/",
    "// line\n", "/* block */", "#", "`", "\u00e9",
])


class TestLexer:
    def test_basic_tokens(self):
        assert lex("int a = b + 1;") == ["int", "a", "=", "b", "+", "1", ";"]

    def test_comments_dropped(self):
        src = "int a; // trailing\n/* block\ncomment */ int b;"
        assert lex(src) == ["int", "a", ";", "int", "b", ";"]

    def test_string_with_escapes(self):
        assert lex(r'f("a \" b");') == ["f", "(", '"a \\" b"', ")", ";"]

    def test_multi_char_operators(self):
        assert lex("a >>= b >>> c != d") == ["a", ">>=", "b", ">>>", "c", "!=", "d"]

    @given(st.lists(_PIECES | st.text(max_size=3), max_size=40).map("".join))
    def test_matches_position_loop(self, text):
        assert lex(text) == lex_by_position(text)


class TestExtraction:
    def test_constructor_excluded(self):
        src = """
        class A {
            A() { this.x = 1; }
            int f() { return 1; }
        }
        """
        methods = extract_methods(src, "A.java", "p")
        assert [m.name for m in methods] == ["f"]

    def test_override_annotation_excluded(self):
        src = """
        class A {
            @Override
            public String toString() { return null; }
            void keep() { work(); }
        }
        """
        assert names(src) == ["keep"]

    def test_abstract_excluded(self):
        src = """
        abstract class A {
            abstract void g();
            void h() { g(); }
        }
        """
        assert names(src) == ["h"]

    def test_same_file_supertype_override_excluded(self):
        src = """
        class Base {
            void tick(int n) { }
        }
        class Derived extends Base {
            void tick(int n) { super.tick(n); }
            void tick() { }
            void other() { }
        }
        """
        got = [(m.name, m.file_path) for m in extract_methods(src, "f.java", "p")]
        # Base.tick stays; Derived.tick(int) matches the supertype by
        # name and arity; the zero-arg overload does not.
        assert [n for n, _ in got] == ["tick", "tick", "other"]
        methods = extract_methods(src, "f.java", "p")
        arities = [len([t for t in m.body_tokens]) for m in methods]
        assert len(arities) == 3

    def test_interface_signature_counts_as_declaration(self):
        src = """
        interface Runner { void run(); }
        class Impl implements Runner {
            public void run() { go(); }
            public void helper() { }
        }
        """
        assert names(src) == ["helper"]

    def test_body_tokens_cover_braces(self):
        src = "class A { int f() { return 1; } }"
        (m,) = extract_methods(src, "A.java", "p")
        assert m.body_tokens[0] == "{" and m.body_tokens[-1] == "}"
        assert m.body_tokens == ["{", "return", "1", ";", "}"]

    def test_body_excludes_signature(self):
        src = "class A { int add(int a, int b) { return a + b; } }"
        (m,) = extract_methods(src, "A.java", "p")
        assert "add" not in m.body_tokens
        assert "int" not in m.body_tokens[:1]

    def test_control_flow_is_not_a_method(self):
        src = """
        class A {
            void f() {
                if (x) { y(); }
                while (b) { c(); }
                for (int i = 0; i < n; i++) { d(); }
                switch (k) { default: break; }
                try { r(); } catch (Exception e) { s(); } finally { t(); }
            }
        }
        """
        assert names(src) == ["f"]

    def test_anonymous_class_swallowed_by_enclosing_method(self):
        src = """
        class A {
            void f() {
                run(new Runnable() {
                    public void run() { work(); }
                });
            }
        }
        """
        methods = extract_methods(src, "A.java", "p")
        assert [m.name for m in methods] == ["f"]
        assert "work" in methods[0].body_tokens

    def test_nested_class_methods_extracted(self):
        src = """
        class Outer {
            void a() { }
            static class Inner {
                void b() { }
            }
        }
        """
        assert sorted(names(src)) == ["a", "b"]

    def test_generic_method_and_return_types(self):
        src = """
        class A {
            <T> java.util.List<T> wrap(T x) { return null; }
            int[] arr() { return null; }
            Map<String, List<Integer>> maps(Map<String, List<Integer>> m) { return m; }
        }
        """
        assert sorted(names(src)) == ["arr", "maps", "wrap"]

    def test_other_modifiers_and_annotations_keep_the_method(self):
        # Only ``abstract`` and ``@Override`` exclude a method.
        src = """
        class A {
            @Deprecated
            public static final int f() { return 1; }
        }
        """
        assert names(src) == ["f"]

    def test_unbalanced_braces_raise(self):
        with pytest.raises(UnbalancedBraces):
            extract_methods("class A { void f() { ", "A.java", "p")
        with pytest.raises(UnbalancedBraces):
            extract_methods("class A { } }", "A.java", "p")

    @settings(max_examples=200, deadline=None)
    @given(java_text())
    def test_any_text_gives_methods_or_unbalanced_braces(self, text):
        # What build-corpus and suggest --snippet do with a file's text.
        try:
            methods = extract_methods(text, "T.java", "proj")
        except UnbalancedBraces:
            methods = []
        for m in methods:
            assert type(m) is RawMethod and type(m.name) is str and m.name
            assert all(type(t) is str for t in m.body_tokens)
            example = tokenize_method(m)
            assert example.name and all(type(t) is str for t in example.name + example.body)
        tokens = tokenize_snippet(text)
        assert type(tokens) is list and all(type(t) is str and t for t in tokens)

    def test_stats_counted(self):
        from collections import Counter

        src = """
        class A {
            A() { }
            @Override public int hashCode() { return 1; }
            abstract void g();
            void keep() { }
        }
        """
        stats = Counter()
        methods = extract_methods(src, "A.java", "p", stats)
        assert [m.name for m in methods] == ["keep"]
        assert stats["excluded_constructor"] == 1
        assert stats["excluded_override"] == 1
        assert stats["excluded_bodyless"] == 1

    def test_enum_methods(self):
        src = """
        enum Color {
            RED, GREEN;
            String label() { return name(); }
        }
        """
        assert names(src) == ["label"]

    def test_field_initializers_ignored(self):
        src = """
        class A {
            int[] xs = {1, 2, 3};
            Runnable r = () -> { run(); };
            void f() { }
        }
        """
        assert names(src) == ["f"]


class TestAnnotatedTypes:
    """An annotation that passes a class literal names no type."""

    @pytest.mark.parametrize("header, method, name", [
        ("@RunWith(JUnit4.class) public class FooTest",
         "void testAdd() { check(1); }", "testAdd"),
        ("@JsonDeserialize(using = X.class) public interface Shape",
         "default int sides() { return 0; }", "sides"),
        ("@Schema(Foo.class) public record Point(int x)",
         "int norm() { return x; }", "norm"),
        ("@Named(record) public class Row",
         "int width() { return 1; }", "width"),
    ], ids=["class", "interface", "record", "record-as-identifier"])
    def test_type_keeps_its_methods(self, header, method, name):
        assert names(header + " {\n    " + method + "\n}\n") == [name]

    def test_method_annotated_with_class_literal(self):
        src = """
        class FooTest {
            @Test(expected = IllegalStateException.class)
            public void testThrows() { fail(); }
        }
        """
        (m,) = extract_methods(src, "FooTest.java", "p")
        assert m.name == "testThrows"

    def test_record_as_parameter_name_is_a_method(self):
        src = "class Log { void save(Object record) { write(record); } }"
        assert names(src) == ["save"]
