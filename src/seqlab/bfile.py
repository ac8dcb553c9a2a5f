"""OEIS b-file ingestion: parsing, offset policy, fixtures, optional fetching.

A b-file is plain text with one "index value" pair per line, '#' comments,
and contiguous indices.  Conversion to a 1-indexed sequence either re-indexes
the first entry to n = 1 (shift-to-1, the default: sequence identities in
this domain hold only up to shift, so the first listed term is the contract)
or requires the file to start at 1 (strict).

Fetching is offline by default and reads bundled or user-supplied fixture
files; the network path is opt-in and caches under the requested directory.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: contiguous (index, value) entries starting at ``offset``."""

    source: str
    offset: int
    entries: tuple[tuple[int, int], ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def parse_bfile(text: str, source: str = "<text>") -> BFile:
    """Parse b-file text; raises BFileError with a line number on bad input."""
    entries: list[tuple[int, int]] = []
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
        if entries and idx != entries[-1][0] + 1:
            raise BFileError(
                f"index {idx} breaks contiguity (previous {entries[-1][0]})", lineno
            )
        entries.append((idx, val))
    if not entries:
        raise BFileError("no entries found")
    return BFile(source, entries[0][0], tuple(entries))


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
    values = []
    for idx, v in bf.entries:
        if v < 0:
            if not absolute:
                raise ValueError(
                    f"signed value {v} at index {idx}; pass absolute=True to take |.|"
                )
            v = -v
        values.append(v)
    return Sequence1(tuple(values), bf.source)


_A_NUMBER = re.compile(r"\A[Aa]?(\d{1,6})\Z")


def normalize_a_number(a_number: int | str) -> str:
    """Canonical 'A######' form; accepts 32, 'A32', 'a000032', '000032'."""
    if isinstance(a_number, int):
        num = a_number
    else:
        m = _A_NUMBER.match(a_number.strip())
        if not m:
            raise ValueError(f"not an A-number: {a_number!r}")
        num = int(m.group(1))
    if not 0 < num < 10**6:
        raise ValueError(f"A-number out of range: {num}")
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
    base_url: str | None = None,
    cache_dir: str | os.PathLike | None = None,
    fixtures_dir: str | os.PathLike | None = None,
    timeout: float = 30.0,
) -> BFile:
    """Resolve an A-number to a parsed b-file.

    Offline (default): look in ``cache_dir``, then ``fixtures_dir``, then the
    fixtures bundled with the package; raise FixtureMissingError otherwise.
    Online: GET <base>/<A>/b<number>.txt (base from ``base_url`` or the
    OEIS_BASE_URL environment variable) and cache the raw text on success.
    Network failures, non-200 responses, and parse failures raise distinct
    error types.
    """
    a = normalize_a_number(a_number)
    name = _bfile_name(a)

    if cache_dir is not None:
        cached = Path(cache_dir) / name
        if cached.is_file():
            return parse_bfile(cached.read_text(), source=a)

    if not online:
        if fixtures_dir is not None:
            local = Path(fixtures_dir) / name
            if local.is_file():
                return parse_bfile(local.read_text(), source=a)
        text = bundled_fixture_text(a)
        if text is not None:
            return parse_bfile(text, source=a)
        raise FixtureMissingError(
            f"no cached or bundled b-file for {a} (offline mode)"
        )

    import http.client
    import urllib.error
    import urllib.request

    base = base_url or os.environ.get("OEIS_BASE_URL") or DEFAULT_BASE_URL
    url = f"{base.rstrip('/')}/{a}/{name}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
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
    if cache_dir is not None:
        import tempfile

        # all or nothing: the cache is read before the fixtures, so a
        # truncated file would silently shorten the prefix from then on
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
