import json
import socket
import threading
import time

import pytest

from perfbench.httpgen import Connection, ResponseReader


def _response(body: bytes, status: int = 200) -> bytes:
    return (f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def test_reader_reassembles_byte_by_byte():
    data = _response(b'{"a": 1}')
    reader = ResponseReader()
    for i in range(len(data) - 1):
        reader.feed(data[i:i + 1])
        assert reader.pop() is None
    reader.feed(data[-1:])
    assert reader.pop() == (200, b'{"a": 1}')


def test_reader_splits_coalesced_responses():
    reader = ResponseReader()
    both = _response(b"[1]") + _response(b'{"error": "x"}', 503)
    reader.feed(both[:len(both) - 3])
    assert reader.pop() == (200, b"[1]")
    assert reader.pop() is None
    reader.feed(both[-3:])
    assert reader.pop() == (503, b'{"error": "x"}')


def test_reader_rejects_unframed_response():
    with pytest.raises(ValueError):
        ResponseReader().feed(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")


class _SplitWriter:
    """A keep-alive server that writes each response in three pieces."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            buffer = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\r\n\r\n" in buffer:
                    head, _, rest = buffer.partition(b"\r\n\r\n")
                    length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
                    if len(rest) < length:
                        break
                    body, buffer = rest[:length], rest[length:]
                    reply = _response(json.dumps({"echo": json.loads(body)}).encode())
                    cut = reply.index(b"\r\n\r\n") + 2
                    for piece in (reply[:cut], reply[cut:cut + 5], reply[cut + 5:]):
                        conn.sendall(piece)
                        time.sleep(0.002)

    def close(self):
        self.listener.close()
        self.thread.join(5)
        assert not self.thread.is_alive()


def test_keep_alive_connection_over_split_writes():
    server = _SplitWriter()
    try:
        conn = Connection("127.0.0.1", server.port, keep_alive=True)
        for i in range(5):
            status, raw = conn.request("POST", "/predict", {"i": i})
            assert status == 200 and json.loads(raw) == {"echo": {"i": i}}
        conn.close()
        assert conn.connects == 1
    finally:
        server.close()
