"""Property tests for every loader: keys and ciphertexts as JSON objects,
hex polynomials, wire frames and transcripts.  Messages have no JSON
object form; the CLI reads and writes them as bare coefficient arrays.

Mutated input may only be rejected with ValueError or ProtocolError (or,
where the mutation keeps it well formed, load); valid input round-trips
unchanged.  Runs are derandomized and keep no example database.
"""

import copy
import dataclasses
import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis import strategies as st

import bfvlab.bfv as bfv
from bfvlab import BfvParams, Polynomial, SecretKey
from bfvlab.psi import (
    ProtocolError,
    Transcript,
    WireMessage,
    alice_finish,
    alice_init,
    alice_query,
    bob_init,
    bob_respond,
    decode_frame,
    encode_frame,
    run_session,
    verify_transcript,
)

from oracles import hex_oracle

# Hypothesis caches the constants it finds in local source under its home
# directory, .hypothesis/ in the working directory by default, already at
# collection; a temporary home keeps the checkout clean.  It is removed
# when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

PARAMS = BfvParams(d=64, q=2**30, t=256)
D, Q, T = PARAMS.d, PARAMS.q, PARAMS.t

_rng = np.random.default_rng(4)
SK, PK = bfv.keygen(PARAMS, _rng)
CT = bfv.encrypt(PK, Polynomial.constant(5, PARAMS.d, PARAMS.t), _rng)

# kind -> (valid JSON object, loader)
OBJECTS = {
    "secret_key": (bfv.secret_key_to_json(SK), bfv.secret_key_from_json),
    "public_key": (bfv.public_key_to_json(PK), bfv.public_key_from_json),
    "ciphertext": (bfv.ciphertext_to_json(CT), bfv.ciphertext_from_json),
}

# One honest session whose states are copied back to the receiving phase.
ALICE, PUBKEY = alice_init(PARAMS, 1, np.random.default_rng(5))
BOB = bob_init(PARAMS, 2, PUBKEY, np.random.default_rng(6))
QUERY = alice_query(ALICE)
RESPONSE = bob_respond(BOB, QUERY)
MESSAGES = {"pubkey": PUBKEY, "query": QUERY, "response": RESPONSE}
TRANSCRIPT = run_session(PARAMS, 3, 3, np.random.default_rng(7))


def receive(msg: WireMessage, kind: str) -> None:
    """Hand msg to the party that consumes messages of `kind`."""
    if kind == "pubkey":
        bob_init(PARAMS, 2, msg, np.random.default_rng(8))
    elif kind == "query":
        bob_respond(dataclasses.replace(BOB, phase="ready"), msg)
    else:
        alice_finish(dataclasses.replace(ALICE, phase="sent"), msg)


def rejected_cleanly(fn, *args) -> bool:
    """Run fn; True if it raised ValueError or ProtocolError, False if it
    returned.  Any other exception propagates and fails the test."""
    try:
        fn(*args)
    except (ValueError, ProtocolError):
        return True
    return False


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# JSON values that are not an int64 integer
NOT_INT64 = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.text("019afx+-_ \n", max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63) - 1),
)
JSON_VALUES = st.one_of(NOT_INT64, st.integers(-(2**64), 2**64))
HEADER_KEYS = ("scheme", "d", "q", "t", "sigma", "payload")
UNKNOWN_KEY = "extra"


def _vector_slot(data, obj):
    vec = data.draw(st.integers(0, len(obj["payload"]) - 1), label="vector")
    return vec, data.draw(st.integers(0, D - 1), label="index")


# --- JSON objects ----------------------------------------------------------------


@PROPERTY
@given(kind=st.sampled_from(sorted(OBJECTS)), value=NOT_INT64, data=st.data())
def test_retyped_coefficient_is_rejected(kind, value, data):
    obj, load = OBJECTS[kind]
    mutated = copy.deepcopy(obj)
    vec, index = _vector_slot(data, obj)
    mutated["payload"][vec][index] = value
    assert rejected_cleanly(load, mutated)


@PROPERTY
@given(
    kind=st.sampled_from(sorted(OBJECTS)),
    value=st.integers(-(2**63), 2**63 - 1),
    data=st.data(),
)
def test_large_int64_coefficient_loads_reduced_or_is_rejected(kind, value, data):
    obj, load = OBJECTS[kind]
    mutated = copy.deepcopy(obj)
    vec, index = _vector_slot(data, obj)
    mutated["payload"][vec][index] = value
    if not rejected_cleanly(load, mutated):
        loaded = load(mutated)
        poly = getattr(loaded, dataclasses.fields(loaded)[vec].name)
        assert (int(poly.coeffs[index]) - value) % poly.modulus == 0


@PROPERTY
@given(
    kind=st.sampled_from(sorted(OBJECTS)),
    delta=st.integers(-D, D).filter(bool),
    data=st.data(),
)
def test_vector_of_wrong_length_is_rejected(kind, delta, data):
    obj, load = OBJECTS[kind]
    mutated = copy.deepcopy(obj)
    vec, _ = _vector_slot(data, obj)
    values = mutated["payload"][vec]
    mutated["payload"][vec] = values[:delta] if delta < 0 else values + [0] * delta
    assert rejected_cleanly(load, mutated)


@PROPERTY
@given(
    kind=st.sampled_from(sorted(OBJECTS)),
    key=st.sampled_from((*HEADER_KEYS, UNKNOWN_KEY)),
    drop=st.booleans(),
    value=JSON_VALUES,
)
def test_dropped_or_retyped_header_key_raises_only_value_error(kind, key, drop, value):
    obj, load = OBJECTS[kind]
    mutated = copy.deepcopy(obj)
    if drop and key != UNKNOWN_KEY:
        del mutated[key]
        assert rejected_cleanly(load, mutated)
    else:
        mutated[key] = value
        # a header key may keep a value that loads; an unknown key never loads
        assert rejected_cleanly(load, mutated) or key != UNKNOWN_KEY


@PROPERTY
@given(kind=st.sampled_from(sorted(OBJECTS)), data=st.data())
def test_valid_objects_round_trip(kind, data):
    obj, load = OBJECTS[kind]
    cls = type(load(obj))
    low, high = (0, 1) if cls is SecretKey else (-(Q // 2), (Q - 1) // 2)
    vectors = st.lists(st.integers(low, high), min_size=D, max_size=D)
    polys = [
        Polynomial(np.array(data.draw(vectors), dtype=np.int64), Q)
        for _ in dataclasses.fields(cls)[:-1]  # every field but params
    ]
    value = cls(*polys, PARAMS)
    to_json = getattr(bfv, f"{kind}_to_json")
    text = json.dumps(to_json(value))
    assert load(json.loads(text)) == value


@PROPERTY
@given(q=st.integers(2, 2**62 - 1), data=st.data())
def test_hex_matches_reference_and_round_trips(q, data):
    coeffs = data.draw(st.lists(st.integers(-(q // 2), (q - 1) // 2), min_size=1, max_size=16))
    poly = Polynomial(np.array(coeffs, dtype=np.int64), q)
    assert poly.to_hex() == hex_oracle(coeffs, q)
    assert Polynomial.from_hex(poly.to_hex(), q) == poly


@PROPERTY
@given(q=st.integers(2, 2**62 - 1), text=st.text("0123456789abcdefABCDEFx+-_ \n\t", max_size=24))
def test_arbitrary_hex_text_raises_only_value_error(q, text):
    rejected_cleanly(Polynomial.from_hex, text, q)


# --- frames and transcripts --------------------------------------------------------


@PROPERTY
@given(kind=st.sampled_from(sorted(MESSAGES)), data=st.data())
def test_altered_frame_bytes_raise_only_protocol_errors(kind, data):
    frame = bytearray(encode_frame(MESSAGES[kind]))
    action = data.draw(st.sampled_from(("flip", "cut", "extend")), label="action")
    if action == "flip":
        index = data.draw(st.integers(0, len(frame) - 1), label="index")
        frame[index] = data.draw(st.integers(0, 255).filter(lambda b: b != frame[index]))
    elif action == "cut":
        del frame[data.draw(st.integers(0, len(frame) - 1), label="length") :]
    else:
        frame += data.draw(st.binary(min_size=1, max_size=8), label="tail")
    try:
        receive(decode_frame(bytes(frame)), kind)
    except ProtocolError:
        pass


@PROPERTY
@given(
    kind=st.sampled_from(sorted(MESSAGES)),
    new_kind=st.sampled_from(("pubkey", "query", "response", "result")),
)
def test_altered_frame_kind_is_rejected_by_its_receiver(kind, new_kind):
    msg = MESSAGES[kind]
    altered = decode_frame(encode_frame(WireMessage(msg.session_id, new_kind, msg.body)))
    if new_kind != kind:
        try:
            receive(altered, kind)
        except ProtocolError:
            return
        raise AssertionError(f"{kind} receiver accepted a {new_kind} message")


@PROPERTY
@given(
    index=st.integers(0, 3),
    key=st.sampled_from(("session_id", "kind", "body")),
    drop=st.booleans(),
    value=JSON_VALUES,
)
def test_mutated_transcript_frames_raise_only_protocol_errors(index, key, drop, value):
    obj = copy.deepcopy(TRANSCRIPT.to_json())
    if drop:
        del obj["frames"][index][key]
    else:
        obj["frames"][index][key] = value
    obj = json.loads(json.dumps(obj))
    try:
        verify_transcript(Transcript.from_json(obj))
    except ProtocolError:
        return
    assert not drop and obj["frames"][index][key] == TRANSCRIPT.frames[index][key]


@PROPERTY
@given(index=st.integers(1, 2), value=NOT_INT64, data=st.data())
def test_retyped_transcript_coefficient_is_rejected(index, value, data):
    frames = copy.deepcopy(TRANSCRIPT.frames)
    vec, coeff = _vector_slot(data, frames[index]["body"])
    frames[index]["body"]["payload"][vec][coeff] = value
    try:
        verify_transcript(Transcript(TRANSCRIPT.session_id, frames, TRANSCRIPT.outcome))
    except ProtocolError:
        return
    raise AssertionError("transcript with a retyped coefficient verified")


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(
    m_a=st.integers(-(T // 2), T // 2 - 1),
    m_b=st.integers(-(T // 2), T // 2 - 1),
    seed=st.integers(0, 2**32),
)
def test_valid_transcripts_round_trip(m_a, m_b, seed):
    transcript = run_session(PARAMS, m_a, m_b, np.random.default_rng(seed))
    loaded = Transcript.from_json(json.loads(json.dumps(transcript.to_json())))
    assert loaded == transcript
    assert verify_transcript(loaded).value == ("equal" if m_a == m_b else "not-equal")
    for frame in transcript.frames:
        msg = WireMessage(frame["session_id"], frame["kind"], frame["body"])
        assert decode_frame(encode_frame(msg)) == msg
