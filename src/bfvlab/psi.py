"""Two-party private equality test on top of the toy BFV scheme.

Alice holds m_a, Bob holds m_b.  Alice sends her public key and an
encryption c_a of m_a; Bob replies with r * (m_b - c_a) for a random
unit r mod t (attacks.random_multiplier, attacks.bob_reply); Alice
decrypts and learns Equal exactly when the result is zero.  A unit, not
just a nonzero scalar: an r sharing a factor with t zeroes some nonzero
m_b - m_a, which would answer Equal for unequal inputs.  The outcome
stays with Alice.

Every hop is serialized: messages travel as length-prefixed JSON
frames, and run_session returns a Transcript that records the whole
session so it can be re-verified offline.  Bob's response strategy is
pluggable, which is where the countermeasure (noise flooding) and the
malicious probe (key-bit leakage through the equality answer) plug in.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import attacks, bfv
from .bfv import BfvParams, Ciphertext, PublicKey, SecretKey
from .ring import Polynomial, monomial

__all__ = [
    "ProtocolError",
    "Outcome",
    "Honest",
    "Flooding",
    "MaliciousBitProbe",
    "Strategy",
    "WireMessage",
    "encode_frame",
    "decode_frame",
    "AliceState",
    "BobState",
    "alice_init",
    "alice_query",
    "bob_init",
    "bob_respond",
    "alice_finish",
    "Transcript",
    "run_session",
    "verify_transcript",
    "session_zero_check_oracle",
]


class ProtocolError(RuntimeError):
    """A message arrived out of order, malformed, or for the wrong session."""


class Outcome(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"


@dataclass(frozen=True)
class Honest:
    """Bob computes r * (m_b - c_a) with plain operations only."""


@dataclass(frozen=True)
class Flooding:
    """Honest computation plus an encryption of zero with uniform noise
    on [-bound, bound], drowning the structured evaluation noise."""

    bound: int


@dataclass(frozen=True)
class MaliciousBitProbe:
    """Bob ignores his input and answers with the key-bit probe for `index`;
    Alice's Equal/NotEqual reaction leaks whether s_index is zero."""

    index: int


Strategy = Union[Honest, Flooding, MaliciousBitProbe]

_KINDS = ("pubkey", "query", "response", "result")
_FRAME_HEADER = struct.Struct(">I")
_MAX_FRAME = 1 << 28


@dataclass(frozen=True)
class WireMessage:
    """One protocol message: session id, kind, JSON-serializable body."""

    session_id: str
    kind: str
    body: dict

    def to_dict(self) -> dict:
        return {"session_id": self.session_id, "kind": self.kind, "body": self.body}


def encode_frame(msg: WireMessage) -> bytes:
    """Length-prefixed JSON frame: 4-byte big-endian length, then payload."""
    payload = json.dumps(msg.to_dict(), sort_keys=True).encode()
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(frame: bytes) -> WireMessage:
    """Parse exactly one frame; reject truncation, trailing bytes and bad shapes."""
    if not isinstance(frame, bytes):
        raise ProtocolError(f"frame must be bytes, not {type(frame).__name__}")
    if len(frame) < _FRAME_HEADER.size:
        raise ProtocolError("frame shorter than its length header")
    (length,) = _FRAME_HEADER.unpack(frame[: _FRAME_HEADER.size])
    if length > _MAX_FRAME:
        raise ProtocolError("frame length exceeds the protocol maximum")
    payload = frame[_FRAME_HEADER.size :]
    if len(payload) != length:
        raise ProtocolError("frame payload length does not match its header")
    try:
        obj = json.loads(payload.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, long ints, deep nesting
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    return _message(obj)


def _message(obj) -> WireMessage:
    """The one message check, for decoded frames and stored transcript frames."""
    if not isinstance(obj, dict) or set(obj) != {"session_id", "kind", "body"}:
        raise ProtocolError("frame object must have session_id, kind and body")
    if obj["kind"] not in _KINDS:
        raise ProtocolError(f"unknown message kind {obj['kind']!r}")
    if not isinstance(obj["session_id"], str) or not isinstance(obj["body"], dict):
        raise ProtocolError("malformed session_id or body")
    return WireMessage(obj["session_id"], obj["kind"], obj["body"])


@dataclass
class AliceState:
    """Alice's side: key pair, input, session id, and a phase tag enforcing
    message order."""

    sk: SecretKey
    pk: PublicKey
    m_a: Polynomial
    session_id: str
    rng: np.random.Generator
    phase: str = "init"


@dataclass
class BobState:
    """Bob's side: the peer's public key, his input, and the reply strategy."""

    pk: PublicKey
    m_b: Polynomial
    r: Polynomial
    session_id: str
    rng: np.random.Generator
    strategy: Strategy = field(default_factory=Honest)
    phase: str = "ready"


def _read_message(msg: WireMessage, kind: str, session_id, peer):
    """The one reader of pubkey, query and response messages: check the kind and
    session, load the body, and check it against peer (a key, ciphertext or
    BfvParams) with bfv.same_params (each check skipped for None); return the
    loaded object, or raise ProtocolError."""
    if msg.kind != kind:
        raise ProtocolError(f"expected a {kind} message, got {msg.kind!r}")
    if session_id is not None and msg.session_id != session_id:
        raise ProtocolError(f"{kind} message belongs to a different session")
    load = bfv.public_key_from_json if kind == "pubkey" else bfv.ciphertext_from_json
    try:
        obj = load(msg.body)
        if peer is not None:
            bfv.same_params(obj, peer)
    except ValueError as exc:
        raise ProtocolError(f"invalid {kind} payload: {exc}") from exc
    return obj


def alice_init(
    params: BfvParams,
    m_a,
    rng: np.random.Generator,
    keys: Optional[tuple[SecretKey, PublicKey]] = None,
) -> tuple[AliceState, WireMessage]:
    """Start a session: generate (or reuse) keys and emit the pubkey message;
    raise ValueError, before any draw, if an honest reply can miss the margin
    or the given keys were made with other parameters."""
    reply_noise = bfv.reply_noise_bound(params, params.t // 2)
    bfv.check_decrypt_margin(reply_noise, params, "honest reply noise")
    sk, pk = keys if keys is not None else bfv.keygen(params, rng)
    bfv.same_params(params, sk, pk)
    session_id = rng.bytes(16).hex()
    state = AliceState(
        sk=sk,
        pk=pk,
        m_a=bfv.plaintext([m_a], params),
        session_id=session_id,
        rng=rng,
    )
    msg = WireMessage(session_id, "pubkey", bfv.public_key_to_json(pk))
    return state, msg


def alice_query(state: AliceState) -> WireMessage:
    """Encrypt m_a and emit the query message."""
    if state.phase != "init":
        raise ProtocolError(f"alice cannot send a query in phase {state.phase!r}")
    ct = bfv.encrypt(state.pk, state.m_a, state.rng)
    state.phase = "sent"
    return WireMessage(state.session_id, "query", bfv.ciphertext_to_json(ct))


def bob_init(
    params: BfvParams,
    m_b,
    pubkey_msg: WireMessage,
    rng: np.random.Generator,
    strategy: Strategy = Honest(),
) -> BobState:
    """Accept Alice's pubkey message, made with params, and fix the blinding scalar r."""
    pk = _read_message(pubkey_msg, "pubkey", None, params)
    return BobState(
        pk=pk,
        m_b=bfv.plaintext([m_b], params),
        r=monomial(0, attacks.random_multiplier(params, rng), params.d, params.t),
        session_id=pubkey_msg.session_id,
        rng=rng,
        strategy=strategy,
    )


def bob_respond(state: BobState, query: WireMessage) -> WireMessage:
    """Consume the query and emit the response chosen by the strategy."""
    if state.phase != "ready":
        raise ProtocolError(f"bob cannot respond in phase {state.phase!r}")
    c_a = _read_message(query, "query", state.session_id, state.pk)

    strategy = state.strategy
    if isinstance(strategy, MaliciousBitProbe):
        response = attacks.bit_leak_probe(state.pk, strategy.index, state.pk.params)
    else:
        bound = strategy.bound if isinstance(strategy, Flooding) else None
        response = attacks.bob_reply(c_a, state.m_b, state.r, state.pk, state.rng, bound)
    state.phase = "done"
    return WireMessage(state.session_id, "response", bfv.ciphertext_to_json(response))


def alice_finish(state: AliceState, response: WireMessage) -> Outcome:
    """Decrypt the response: zero means the inputs were equal."""
    if state.phase != "sent":
        raise ProtocolError(f"alice cannot finish in phase {state.phase!r}")
    ct = _read_message(response, "response", state.session_id, state.sk)
    decrypted = bfv.decrypt(state.sk, ct)
    state.phase = "done"
    return Outcome.EQUAL if decrypted.is_zero() else Outcome.NOT_EQUAL


@dataclass
class Transcript:
    """Full record of one session: every frame in order, plus the outcome.

    A transcript returned by run_session also carries the parties' final
    states in alice and bob.  They stay in memory: to_json leaves them
    out, and a transcript from from_json has None there.
    """

    session_id: str
    frames: list[dict]
    outcome: str
    alice: Optional[AliceState] = field(default=None, repr=False, compare=False)
    bob: Optional[BobState] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "session_id": self.session_id,
            "frames": self.frames,
            "outcome": self.outcome,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Transcript":
        if not isinstance(obj, dict) or set(obj) != {"session_id", "frames", "outcome"}:
            raise ProtocolError("transcript must have session_id, frames and outcome")
        if not isinstance(obj["frames"], list):
            raise ProtocolError("transcript frames must be a list")
        for frame in obj["frames"]:
            _message(frame)
        if not isinstance(obj["session_id"], str):
            raise ProtocolError("transcript session_id must be a string")
        if obj["outcome"] not in [outcome.value for outcome in Outcome]:
            raise ProtocolError(f"unknown outcome {obj['outcome']!r}")
        return cls(obj["session_id"], obj["frames"], obj["outcome"])


def _deliver(msg: WireMessage, frames: list[dict]) -> WireMessage:
    """Serialize to a wire frame, record it, and parse it back at the receiver."""
    frame = encode_frame(msg)
    received = decode_frame(frame)
    frames.append(received.to_dict())
    return received


def run_session(
    params: BfvParams,
    m_a,
    m_b,
    rng: np.random.Generator,
    strategy: Strategy = Honest(),
    alice_keys: Optional[tuple[SecretKey, PublicKey]] = None,
) -> Transcript:
    """Run one full session over serialized frames; return its transcript,
    which also holds both parties' final states."""
    alice_rng, bob_rng = rng.spawn(2)
    frames: list[dict] = []
    alice, pubkey_msg = alice_init(params, m_a, alice_rng, keys=alice_keys)
    bob = bob_init(params, m_b, _deliver(pubkey_msg, frames), bob_rng, strategy)
    response_msg = bob_respond(bob, _deliver(alice_query(alice), frames))
    outcome = alice_finish(alice, _deliver(response_msg, frames))
    result_msg = WireMessage(alice.session_id, "result", {"outcome": outcome.value})
    _deliver(result_msg, frames)
    return Transcript(alice.session_id, frames, outcome.value, alice=alice, bob=bob)


def verify_transcript(transcript: Transcript) -> Outcome:
    """Re-check a stored transcript: frame order, session ids, payload shapes,
    and agreement between the result frame and the recorded outcome."""
    transcript = Transcript.from_json(transcript.to_json())  # the one transcript check
    messages = [WireMessage(**frame) for frame in transcript.frames]
    kinds = [msg.kind for msg in messages]
    if kinds != list(_KINDS):
        raise ProtocolError(f"unexpected frame order {kinds}")
    peer = None
    for msg in messages[:-1]:
        peer = _read_message(msg, msg.kind, transcript.session_id, peer)
    result = messages[-1]
    if result.session_id != transcript.session_id:
        raise ProtocolError("result message belongs to a different session")
    if set(result.body) != {"outcome"}:
        raise ProtocolError("result body must hold exactly the outcome")
    if result.body["outcome"] != transcript.outcome:
        raise ProtocolError("result frame disagrees with the recorded outcome")
    return Outcome(transcript.outcome)


def session_zero_check_oracle(
    m_a,
    alice_keys: tuple[SecretKey, PublicKey],
    rng: np.random.Generator,
) -> attacks.ZeroCheckOracle:
    """Zero-check oracle built from whole protocol sessions.

    Each query must be a key-bit probe for Alice's public key.  The
    probe index is read off the ciphertext, a fresh session is run with
    a malicious Bob playing that probe against the same Alice key pair,
    and the session outcome (Equal versus NotEqual) is the oracle
    answer.  This is the composition that turns an equality protocol
    into a key-leak channel.
    """
    pk = alice_keys[1]

    def infer_index(ct: Ciphertext) -> int:
        nonzero = np.flatnonzero((ct.c0 - pk.pk0).coeffs)
        if nonzero.size != 1 or ct != attacks.bit_leak_probe(pk, int(nonzero[0]), pk.params):
            raise ProtocolError("query is not a key-bit probe for this public key")
        return int(nonzero[0])

    def check(ct: Ciphertext) -> bool:
        index = infer_index(ct)
        (child,) = rng.spawn(1)
        transcript = run_session(
            pk.params,
            m_a,
            0,
            child,
            strategy=MaliciousBitProbe(index),
            alice_keys=alice_keys,
        )
        return Outcome(transcript.outcome) is Outcome.EQUAL

    return attacks.ZeroCheckOracle(check)
