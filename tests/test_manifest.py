"""The payload checksum of a str payload hashed in pieces equals the
checksum of the whole text, wherever the pieces are cut."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from dotcumulants.manifest import TextChecksum, attach_checksum, canonical_json

#: characters whose JSON escape is not themselves: quote, backslash, CR/LF,
#: control characters, non-ASCII, an astral character (a surrogate pair in
#: JSON) and the two halves of that pair as lone code points
SPECIAL = '"\\\r\n\t\x00\x1f\x7f\xe9€\U0001f600\ud83d\ude00,'


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(st.one_of(st.sampled_from(SPECIAL), st.characters())), st.data())
def test_streamed_checksum_equals_the_whole_text_checksum(text, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=6)))
    checksum = TextChecksum()
    for start, stop in zip([0, *cuts], [*cuts, len(text)]):
        checksum.update(text[start:stop])
    whole = hashlib.sha256(canonical_json(text).encode()).hexdigest()
    assert checksum.hexdigest() == whole
    assert attach_checksum({}, text)["payload_sha256"] == whole
