"""Wire-protocol unit tests: framing, negotiation, the signed hello."""

from __future__ import annotations

import json
import os
import socket
import struct

import pytest

from repro.cluster.protocol import (
    HANDSHAKE_CODEC,
    MAGIC,
    PICKLE_CODEC,
    PROTOCOL_VERSION,
    TASK_TRACE_INDEX,
    Codec,
    ConnectionClosed,
    Frame,
    FrameKind,
    decode_secret,
    expect_frame,
    format_address,
    handshake_codec,
    hello_mac,
    parse_address,
    recv_frame,
    send_frame,
    verify_hello,
    verify_welcome,
    welcome_mac,
)
from repro.cluster.worker import WorkerDaemon
from repro.errors import ClusterError


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    @pytest.mark.parametrize("kind", list(FrameKind))
    def test_every_kind_round_trips(self, pair, kind):
        left, right = pair
        payload = {"kind": kind.name, "data": [1, 2, 3], "blob": b"\x00\xff" * 7}
        send_frame(left, Frame(kind, payload))
        frame = recv_frame(right)
        assert frame.kind is kind
        assert frame.payload == payload

    def test_frames_preserve_order(self, pair):
        left, right = pair
        for index in range(5):
            send_frame(left, Frame(FrameKind.TASK, (index, "map", None, [])))
        for index in range(5):
            assert recv_frame(right).payload[0] == index

    def test_bad_magic_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", b"HTTP", PROTOCOL_VERSION, 1, 0))
        with pytest.raises(ClusterError, match="magic"):
            recv_frame(right)

    def test_version_mismatch_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION + 1, 1, 0))
        with pytest.raises(ClusterError, match="protocol v"):
            recv_frame(right)

    def test_unknown_kind_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION, 200, 0))
        with pytest.raises(ClusterError, match="unknown frame kind"):
            recv_frame(right)

    def test_eof_mid_header_is_connection_closed(self, pair):
        left, right = pair
        left.sendall(MAGIC[:2])
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_eof_mid_payload_is_connection_closed(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sBBI", MAGIC, PROTOCOL_VERSION, 1, 100) + b"partial")
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_unencodable_payload_is_a_cluster_error(self, pair):
        left, _ = pair
        with pytest.raises(ClusterError, match="encode"):
            send_frame(left, Frame(FrameKind.TASK, lambda x: x))


class TestExpectFrame:
    def test_wrong_kind_rejected(self, pair):
        left, right = pair
        send_frame(left, Frame(FrameKind.HEARTBEAT))
        with pytest.raises(ClusterError, match="expected a TASK"):
            expect_frame(right, FrameKind.TASK)

    def test_error_frame_surfaces_peer_reason(self, pair):
        left, right = pair
        send_frame(left, Frame(FrameKind.ERROR, (None, "enrollment MAC verification failed")))
        with pytest.raises(ClusterError, match="MAC verification failed"):
            expect_frame(right, FrameKind.WELCOME)


class TestTaskFrameShape:
    """A TASK is exactly (key, mode, fn, data, trace); anything else is malformed."""

    def _serve(self, pair, payload):
        left, right = pair
        worker = WorkerDaemon(("127.0.0.1", 0), worker_id="w1")
        worker._sock = right
        send_frame(left, Frame(FrameKind.TASK, payload))
        send_frame(left, Frame(FrameKind.SHUTDOWN))
        worker._serve()
        return recv_frame(left)

    def test_five_element_task_is_served(self, pair):
        assert TASK_TRACE_INDEX == 4
        reply = self._serve(pair, (7, "map", abs, [-1, 2, -3], ""))
        assert reply.kind is FrameKind.RESULT
        assert reply.payload == (7, [1, 2, 3])

    def test_four_element_task_is_rejected(self, pair):
        with pytest.raises(ClusterError, match="malformed TASK frame"):
            self._serve(pair, (7, "map", abs, [-1, 2, -3]))


class _JsonCodec(Codec):
    """A constrained-vocabulary codec exercising the pluggable seam."""

    name = "json"

    def encode(self, payload):
        return json.dumps(payload).encode()

    def decode(self, data):
        return json.loads(data.decode())


class TestCodecSeam:
    def test_alternate_codec_round_trips(self, pair):
        left, right = pair
        codec = _JsonCodec()
        send_frame(left, Frame(FrameKind.HELLO, {"worker_id": "w1", "slots": 2}), codec)
        frame = recv_frame(right, codec)
        assert frame.payload == {"worker_id": "w1", "slots": 2}

    def test_codec_mismatch_is_a_decode_error(self, pair):
        left, right = pair
        send_frame(left, Frame(FrameKind.HELLO, {"worker_id": "w1"}))  # pickle
        with pytest.raises(ClusterError, match="decode"):
            recv_frame(right, _JsonCodec())


class TestSignedHello:
    SECRET = b"s" * 32
    NONCE = b"n" * 16

    def test_accepts_honest_tag(self):
        tag = hello_mac(self.SECRET, self.NONCE, "worker-1", 4)
        assert verify_hello(self.SECRET, self.NONCE, "worker-1", 4, tag)

    @pytest.mark.parametrize(
        "secret,nonce,worker,slots",
        [
            (b"x" * 32, NONCE, "worker-1", 4),   # wrong secret
            (SECRET, b"m" * 16, "worker-1", 4),  # replayed against a new nonce
            (SECRET, NONCE, "worker-2", 4),      # renamed identity
            (SECRET, NONCE, "worker-1", 64),     # inflated slot count
        ],
    )
    def test_rejects_any_tampered_field(self, secret, nonce, worker, slots):
        tag = hello_mac(self.SECRET, self.NONCE, "worker-1", 4)
        assert not verify_hello(secret, nonce, worker, slots, tag)

    def test_rejects_garbage_tag(self):
        assert not verify_hello(self.SECRET, self.NONCE, "worker-1", 4, b"")
        assert not verify_hello(self.SECRET, self.NONCE, "worker-1", 4, b"\x00" * 32)


class TestHandshakeCodec:
    """Pre-authentication frames must never execute code on decode."""

    def test_primitive_payloads_round_trip(self, pair):
        left, right = pair
        payload = {"nonce": b"n" * 16, "protocol_version": 1, "authenticated": True}
        send_frame(left, Frame(FrameKind.CHALLENGE, payload))  # honest pickle encode
        assert recv_frame(right, HANDSHAKE_CODEC).payload == payload

    def test_global_bearing_pickle_rejected(self, pair):
        left, right = pair
        # os.system would resolve via find_class on an unrestricted decode.
        send_frame(left, Frame(FrameKind.HELLO, os.system))
        with pytest.raises(ClusterError, match="decode"):
            recv_frame(right, HANDSHAKE_CODEC)

    def test_reduce_payload_rejected_before_execution(self, pair):
        left, right = pair
        import cluster_tasks

        class Evil:
            def __reduce__(self):
                return (cluster_tasks.trip_wire, ("pwned",))

        cluster_tasks.TRIPWIRE.clear()
        send_frame(left, Frame(FrameKind.HELLO, {"mac": Evil()}))
        with pytest.raises(ClusterError, match="decode"):
            recv_frame(right, HANDSHAKE_CODEC)
        assert cluster_tasks.TRIPWIRE == []  # the payload never executed

    def test_pickle_sessions_harden_custom_codecs_do_not(self):
        assert handshake_codec(PICKLE_CODEC) is HANDSHAKE_CODEC
        other = _JsonCodec()
        assert handshake_codec(other) is other


class TestMutualWelcome:
    SECRET = b"s" * 32
    NONCE = b"w" * 16

    def test_accepts_honest_tag(self):
        tag = welcome_mac(self.SECRET, self.NONCE, "worker-1")
        assert verify_welcome(self.SECRET, self.NONCE, "worker-1", tag)

    @pytest.mark.parametrize(
        "secret,nonce,worker",
        [
            (b"x" * 32, NONCE, "worker-1"),  # impostor without the secret
            (SECRET, b"v" * 16, "worker-1"),  # replay against a fresh nonce
            (SECRET, NONCE, "worker-2"),      # reassigned identity
        ],
    )
    def test_rejects_tampered_fields(self, secret, nonce, worker):
        tag = welcome_mac(self.SECRET, self.NONCE, "worker-1")
        assert not verify_welcome(secret, nonce, worker, tag)


class TestAddressAndSecretParsing:
    def test_address_round_trip(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert format_address(("10.0.0.5", 51000)) == "10.0.0.5:51000"

    @pytest.mark.parametrize("text", ["localhost", ":80", "host:", "host:notaport", "host:99999"])
    def test_bad_addresses_rejected(self, text):
        with pytest.raises(ClusterError):
            parse_address(text)

    def test_secret_decoding(self):
        assert decode_secret(None) is None
        assert decode_secret("") is None
        assert decode_secret("00ff") == b"\x00\xff"
        # Non-hex secrets are taken literally so operators can use any string.
        assert decode_secret("hunter2!") == b"hunter2!"
