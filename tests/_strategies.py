"""Hypothesis strategies shared by the file-format tests."""

from hypothesis import strategies as st


@st.composite
def byte_edits(draw, data: bytes) -> bytes:
    """``data`` with one byte replaced, deleted or inserted."""
    kind = draw(st.sampled_from(["replace", "delete", "insert"]))
    pos = draw(st.integers(0, len(data) - (kind != "insert")))
    byte = bytes([draw(st.integers(0, 255))])
    if kind == "insert":
        return data[:pos] + byte + data[pos:]
    return data[:pos] + (byte if kind == "replace" else b"") + data[pos + 1:]
