"""OEIS b-file ingestion: parsing, offset policy, fixtures, optional fetching.

A b-file is plain text with one "index value" pair per line, '#' comments,
and contiguous indices.  Conversion to a 1-indexed sequence either re-indexes
the first entry to n = 1 (shift-to-1, the default: sequence identities in
this domain hold only up to shift, so the first listed term is the contract)
or requires the file to start at 1 (strict).

Fetching reads the user-supplied fixtures, the cache and then the bundled
fixtures; the network is the opt-in last resort and caches under the requested
directory.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .arith import _at_least, _at_most, _record
from .errors import (
    BFileError,
    FetchHTTPError,
    FetchNetworkError,
    FixtureMissingError,
)
from .realizability import Sequence1

SHIFT_TO_1 = "shift-to-1"
STRICT = "strict"

DEFAULT_BASE_URL = "https://oeis.org"
FETCH_TIMEOUT_S = 30.0


@_record
class BFile:
    """Parsed b-file: the values at contiguous indices offset, offset + 1, ..."""

    source: str
    offset: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


def parse_bfile(text: str, source: str = "<text>") -> BFile:
    """Parse b-file text; raises BFileError with a line number on bad input."""
    offset, values = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"expected 'index value', got {line!r}", lineno)
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(f"non-integer field in {line!r}", lineno) from None
        if offset is None:
            offset = idx
        elif idx != offset + len(values):
            raise BFileError(
                f"index {idx} breaks contiguity (previous {offset + len(values) - 1})", lineno
            )
        values.append(val)
    if not values:
        raise BFileError("no entries found")
    return BFile(source, offset, tuple(values))


def to_sequence(
    bf: BFile,
    policy: str = SHIFT_TO_1,
    absolute: bool = False,
) -> Sequence1:
    """Convert a b-file to a 1-indexed sequence under the given offset policy."""
    if policy not in (SHIFT_TO_1, STRICT):
        raise ValueError(f"unknown offset policy {policy!r}")
    if policy == STRICT and bf.offset != 1:
        raise ValueError(
            f"strict policy requires offset 1, file starts at {bf.offset}"
        )
    for i, v in enumerate(bf.values):
        if v < 0 and not absolute:
            raise ValueError(
                f"signed value {v} at index {bf.offset + i}; "
                f"take absolute values with --abs (absolute=True)"
            )
    return Sequence1(tuple(abs(v) for v in bf.values), bf.source)


# up to six digits, zero-padded or not, or any number of digits without
# padding: the bounds, not the pattern, refuse a number above 999999
_A_NUMBER = re.compile(r"\A[Aa]?(\d{1,6}|[1-9]\d*)\Z")
_PADDED = re.compile(r"\A[Aa]?0\d{6,}\Z")  # zero-padded past six digits: the refusal says so


def normalize_a_number(a_number: int | str) -> str:
    """Canonical 'A######' form; accepts 32, 'A32', 'a000032', '000032'."""
    if isinstance(a_number, int):
        num = a_number
    else:
        text = a_number.strip()
        m = _A_NUMBER.match(text)
        if not m:
            why = " (more than six digits with a leading zero)" if _PADDED.match(text) else ""
            raise ValueError(f"not an A-number: {a_number!r}{why}")
        digits = m.group(1)
        try:
            num = int(digits)
        except ValueError:  # more digits than int() reads: far above the bound
            raise ValueError(f"a_number must be <= 999999, got a number of "
                             f"{len(digits)} digits") from None
    _at_least("a_number", num, 1)
    _at_most("a_number", num, 999999)
    return f"A{num:06d}"


def _bfile_name(a: str) -> str:
    return f"b{a[1:]}.txt"


def bundled_fixture_text(a_number: int | str) -> str | None:
    """Text of a bundled fixture b-file, or None if not shipped."""
    from importlib.resources import files

    a = normalize_a_number(a_number)
    path = files("seqlab") / "fixtures" / _bfile_name(a)
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


def fetch_oeis(
    a_number: int | str,
    *,
    online: bool = False,
    cache_dir: str | os.PathLike | None = None,
    fixtures_dir: str | os.PathLike | None = None,
) -> BFile:
    """Resolve an A-number to a parsed b-file.

    One order, online or not: ``fixtures_dir``, the directory the caller
    named, then ``cache_dir`` (an empty string, like None, names no
    directory), then the bundled fixtures.  If none has the file, raise
    FixtureMissingError, or with ``online`` GET <base>/<A>/b<number>.txt (base
    from the OEIS_BASE_URL environment variable, default the OEIS) and cache
    the raw text on success.  Network failures, non-200 responses, and parse
    failures raise distinct errors.
    """
    a = normalize_a_number(a_number)
    name = _bfile_name(a)

    for directory in (fixtures_dir, cache_dir):
        if directory and (Path(directory) / name).is_file():
            return parse_bfile((Path(directory) / name).read_text(), source=a)
    text = bundled_fixture_text(a)
    if text is not None:
        return parse_bfile(text, source=a)
    if not online:
        raise FixtureMissingError(
            f"no cached or bundled b-file for {a} (offline mode)"
        )

    import http.client
    import urllib.error
    import urllib.request

    base = os.environ.get("OEIS_BASE_URL") or DEFAULT_BASE_URL
    url = f"{base.rstrip('/')}/{a}/{name}"
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error holds the response and its socket
        raise FetchHTTPError(exc.code, url) from exc
    except (OSError, http.client.HTTPException) as exc:
        # URLError and timeouts are OSErrors; HTTPException covers broken replies
        raise FetchNetworkError(f"fetching {url}: {exc}") from exc
    if status != 200:
        raise FetchHTTPError(status, url)
    text = body.decode("utf-8")
    bf = parse_bfile(text, source=a)
    if cache_dir:
        import tempfile

        # all or nothing: the cache is read before the bundled fixtures, so
        # a truncated file would silently shorten the prefix from then on
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, Path(cache_dir) / name)
        except BaseException:
            os.unlink(tmp)
            raise
    return bf
