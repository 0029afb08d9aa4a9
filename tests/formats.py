"""Hypothesis strategy shared by the text-format round-trip tests."""

from hypothesis import strategies as st

# Any printable text on one line: no control, surrogate or line-break characters.
_COMMENT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).map(lambda s: "#" + s)
_FILLER = st.lists(st.one_of(_COMMENT, st.just(""), st.just("   ")), max_size=2)


@st.composite
def commented(draw, text: str) -> str:
    """`text` with `#` comment lines and blank lines interleaved, and trailing
    `#` comments on some of its own lines."""
    out = draw(_FILLER)
    for line in text.splitlines():
        out.append(line + draw(st.one_of(st.just(""), _COMMENT.map(" ".__add__))))
        out.extend(draw(_FILLER))
    return "\n".join(out) + "\n"
