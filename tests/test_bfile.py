import io
import os
import threading
import urllib.error
import urllib.request

import pytest

from seqlab.bfile import (
    SHIFT_TO_1,
    STRICT,
    bundled_fixture_text,
    fetch_oeis,
    normalize_a_number,
    parse_bfile,
    to_sequence,
)
from seqlab.errors import (
    BFileError,
    FetchHTTPError,
    FetchNetworkError,
    FixtureMissingError,
)


def test_parse_basic():
    bf = parse_bfile("1 12\n2 120\n3 252")
    assert bf.offset == 1
    assert bf.values == (12, 120, 252)


def test_parse_comments_and_offset_zero():
    bf = parse_bfile("# comment\n0 1\n1 1\n")
    assert bf.offset == 0
    assert len(bf) == 2


def test_parse_gap_is_error_with_line():
    with pytest.raises(BFileError) as err:
        parse_bfile("1 12\n3 252")
    assert err.value.line == 2


def test_parse_malformed_line():
    with pytest.raises(BFileError) as err:
        parse_bfile("1 12\n2 x")
    assert err.value.line == 2
    with pytest.raises(BFileError):
        parse_bfile("1 12 13")
    with pytest.raises(BFileError):
        parse_bfile("# only comments\n")


def test_to_sequence_policies():
    bf = parse_bfile("0 5\n1 7\n2 9")
    seq = to_sequence(bf, SHIFT_TO_1)
    assert seq.values == (5, 7, 9)  # first file term becomes a_1
    with pytest.raises(ValueError):
        to_sequence(bf, STRICT)
    bf1 = parse_bfile("1 5\n2 7")
    assert to_sequence(bf1, STRICT).values == (5, 7)


def test_to_sequence_signed_values():
    bf = parse_bfile("1 1\n2 -1\n3 1")
    with pytest.raises(ValueError):
        to_sequence(bf)
    assert to_sequence(bf, absolute=True).values == (1, 1, 1)


def test_signed_numerator_fixture_under_abs():
    bf = fetch_oeis("A001067")
    assert bf.values[:6] == (1, -1, 1, -1, 1, -691)
    seq = to_sequence(bf, absolute=True)
    assert seq.values[:6] == (1, 1, 1, 1, 1, 691)


def test_normalize_a_number():
    assert normalize_a_number(32) == "A000032"
    assert normalize_a_number("a364") == "A000364"
    assert normalize_a_number("000364") == "A000364"
    with pytest.raises(ValueError):
        normalize_a_number("B123")
    with pytest.raises(ValueError):
        normalize_a_number("A0000001")


def test_bundled_fixtures_present():
    for a in ("A000364", "A006953", "A000032", "A002895", "A005259", "A005258",
              "A005725", "A054783", "A053175", "A001850", "A010122", "A001945"):
        assert bundled_fixture_text(a) is not None, a
    assert bundled_fixture_text("A999999") is None


def test_fetch_offline_fixture_values():
    e = fetch_oeis("A000364")
    assert e.values[:4] == (1, 5, 61, 1385)
    b = fetch_oeis("A006953")
    assert b.values[:4] == (12, 120, 252, 240)


def test_fetch_offline_missing():
    with pytest.raises(FixtureMissingError):
        fetch_oeis("A999999")


def test_fetch_fixtures_dir_and_cache(tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "b123456.txt").write_text("1 10\n2 20\n")
    bf = fetch_oeis("A123456", fixtures_dir=fixtures)
    assert bf.values == (10, 20)
    # cache takes precedence once populated
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "b123456.txt").write_text("1 99\n")
    bf = fetch_oeis("A123456", fixtures_dir=fixtures, cache_dir=cache)
    assert bf.values == (99,)


def test_fetch_online_roundtrip_with_local_server(tmp_path):
    # serve a fake b-file over HTTP to exercise the online path end to end
    import http.server

    text = "# test\n1 2\n2 4\n3 8\n"

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path == "/A000079/b000079.txt":
                body = text.encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_error(404)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_port}"
        cache = tmp_path / "cache"
        bf = fetch_oeis("A79", online=True, base_url=base, cache_dir=cache)
        assert bf.values == (2, 4, 8)
        assert (cache / "b000079.txt").read_text() == text
        with pytest.raises(FetchHTTPError) as err:
            fetch_oeis("A999998", online=True, base_url=base)
        assert err.value.status == 404
        # cached copy resolves offline afterwards
        bf2 = fetch_oeis("A000079", cache_dir=cache)
        assert bf2.values == (2, 4, 8)
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_online_network_error():
    with pytest.raises(FetchNetworkError):
        fetch_oeis("A79", online=True, base_url="http://127.0.0.1:9", timeout=0.5)


def test_env_var_base_url(monkeypatch, tmp_path):
    monkeypatch.setenv("OEIS_BASE_URL", "http://127.0.0.1:9")
    with pytest.raises(FetchNetworkError):
        fetch_oeis("A79", online=True, timeout=0.5)


class Response(io.BytesIO):
    """What ``urllib.request.urlopen`` returns: a readable context manager."""

    def __init__(self, body, status=200):
        super().__init__(body)
        self.status = status


def test_fetch_cache_write_is_atomic(monkeypatch, tmp_path):
    # a write interrupted before it lands must leave no cache file behind
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: Response(b"1 2\n2 4\n3 8\n"))
    monkeypatch.setattr(os, "replace", fail)
    cache = tmp_path / "cache"
    with pytest.raises(OSError, match="disk full"):
        fetch_oeis("A79", online=True, base_url="http://127.0.0.1:9", cache_dir=cache)
    assert list(cache.iterdir()) == []


def test_fetch_non_200_is_http_error(monkeypatch):
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: Response(b"1 2\n", status=203))
    with pytest.raises(FetchHTTPError) as err:
        fetch_oeis("A79", online=True, base_url="http://127.0.0.1:9")
    assert err.value.status == 203


def test_fetch_http_error_closes_the_response(monkeypatch):
    # the HTTPError holds the reply (a socket, when it came from a server)
    reply = io.BytesIO(b"not found")

    def not_found(url, timeout):
        raise urllib.error.HTTPError(url, 404, "Not Found", {}, reply)

    monkeypatch.setattr(urllib.request, "urlopen", not_found)
    with pytest.raises(FetchHTTPError) as err:
        fetch_oeis("A79", online=True, base_url="http://127.0.0.1:9")
    assert err.value.status == 404
    assert reply.closed


def test_fetch_timeout_is_network_error(monkeypatch):
    def timeout(url, timeout):
        raise TimeoutError("timed out")

    monkeypatch.setattr(urllib.request, "urlopen", timeout)
    with pytest.raises(FetchNetworkError):
        fetch_oeis("A79", online=True, base_url="http://127.0.0.1:9")
