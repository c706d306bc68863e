"""Names are terms, so the id formats are injective.

Every object and morphism id of a category given raw, and the ``str``
form of every presheaf element, is a term (``fincat._is_term``): it holds
no ``:``, ``,``, ``|`` or ``->`` outside brackets, and its brackets
balance.  The id formats of the views put their separators outside
brackets and wrap in brackets what they build, so no view checks its ids
for repeats.  The oracle here is a parser written from the formats alone:
on tuples of generated terms it splits every formatted id back into its
parts, which proves the format injective, and each formatted id is a term
again, so views over views keep the rule.  The formats are ``over_id``
(the objects of coslices, fibres, slices and categories of elements, and
the elements "(x|alpha)" of an inverse fibre), "[alpha:o1->o2]" (the
morphisms of ``_comma_like``) and "[alpha,beta:f->g]" (those of a
factorization category)."""

from hypothesis import given
from hypothesis import strategies as st

from hocofin.fincat import _fact_mor_id, _is_term, over_id

# a plain piece may end in "-" or start with ">", and may hold a separator
plain = st.text(alphabet="ab0-_>.*:,|", max_size=3)


def bracketed(inner):
    """A term or a separator, any number of them, wrapped in a bracket pair."""
    body = st.lists(inner | st.sampled_from([":", ",", "|", "->"]), max_size=3).map("".join)
    return st.tuples(st.sampled_from(["()", "[]", "{}"]), body).map(
        lambda t: t[0][0] + t[1] + t[0][1])


# the names are filtered to terms; a filter that let a separator outside
# brackets through would fail the parser below
terms = st.lists(plain | bracketed(st.recursive(plain, bracketed, max_leaves=4)),
                 max_size=3).map("".join).filter(_is_term)


def split_top(text, sep):
    """``text`` cut at the first ``sep`` outside brackets, or None."""
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            return text[:i], text[i + len(sep):]
    return None


def parse_over_id(text, n):
    assert text[0] + text[-1] == "()"
    parts, rest = [], text[1:-1]
    for _ in range(n - 1):
        head, rest = split_top(rest, "|")
        parts.append(head)
    return tuple(parts) + (rest,)


def parse_morphism_id(text, seps):
    """The parts of "[p0<seps[0]>p1<seps[1]>...]"."""
    assert text[0] + text[-1] == "[]"
    parts, rest = [], text[1:-1]
    for sep in seps:
        head, rest = split_top(rest, sep)
        parts.append(head)
    return tuple(parts) + (rest,)


def test_names_with_a_separator_outside_brackets_are_not_terms():
    assert all(map(_is_term, ["", "a", "id_a", "a<=b", "a-", ">b", "{0,1}", "(a|b)", "[p:2]",
                              "(x->y)", "f(a,b)g"]))
    for name in ["a:b", "x,y", "a|b", "a->b", "a(b", "a)(b", "(a))", "((a)", "(a]|[b)", 1]:
        assert not _is_term(name)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[terms] * n)))
def test_over_id_is_injective_on_terms(parts):
    oid = over_id(parts)
    assert _is_term(oid)
    assert parse_over_id(oid, len(parts)) == parts


@given(terms, terms, terms)
def test_comma_morphism_ids_are_injective_on_terms(alpha, o1, o2):
    mid = "[%s:%s->%s]" % (alpha, o1, o2)
    assert _is_term(mid)
    assert parse_morphism_id(mid, [":", "->"]) == (alpha, o1, o2)


@given(terms, terms, terms, terms)
def test_factorization_morphism_ids_are_injective_on_terms(alpha, beta, f, g):
    mid = _fact_mor_id(alpha, beta, f, g)
    assert _is_term(mid)
    assert parse_morphism_id(mid, [",", ":", "->"]) == (alpha, beta, f, g)


@given(st.lists(st.tuples(terms, terms), unique=True, max_size=8))
def test_distinct_parts_give_distinct_ids(pairs):
    for fmt in (over_id, lambda p: "[%s:%s->%s]" % (p[0], p[1], p[0]),
                lambda p: _fact_mor_id(p[0], p[1], p[1], p[0])):
        assert len({fmt(p) for p in pairs}) == len(pairs)
