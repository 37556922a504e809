"""File formats and the external-trainer bridge.

Prediction logs are newline-delimited JSON, one record per instance:

    {"id": str, "label": int, "true_label": int|null,
     "seq": [0|1, ...], "losses": [float, ...]|null}

``seq`` has one entry per epoch of the round, so every record's ``seq``
has the same length; ``losses`` is optional and only needed by the
small-loss baseline. ``label`` and ``true_label`` must fit in int64. A log
is read into one ``RoundLog``; mfselect writes its losses to the ``.npy``
sidecar of ``losses_path`` instead. A log without inline losses in the exact
layout ``write_prediction_log`` emits is read in bulk, as numpy bytes in
chunks of about a megabyte of whole lines: from each line's end, the fixed
text between the fields, the ints (an optional "-", no leading zero, at most
18 digits; ``true_label`` may be null), the ``seq`` bits and their ", "
separators, and the id, through ``json.loads`` if it holds an escape.
Where every ``label`` of a chunk, or every ``true_label``, is one digit
after a space, that field is read from its one byte; where every id of a
chunk has one width, the ids are gathered as one fixed-width window each.
Other chunks read the 20 bytes before each int and gather ids byte by byte,
with the same result. Any other layout, raw non-ASCII included, is read line
by line, each line decoded as UTF-8, with the same checks and the same
result; every format error comes from that line reader.
Every CSV table is written by ``write_table`` and read by ``read_table``;
datasets have header
``id,feature_0..feature_{d-1},observed_label,true_label,split``. Selected
ids are stored one per line, exactly as given, so an id may hold any
character but a line break; the dataset and log readers reject one that
does. Ids are opaque strings everywhere: ``007`` and ``7`` are two
instances, and files keep their input row order.

Every output file is written through ``atomic_path``, which makes its
directory: to a temp file that replaces the target only once it is
complete. The table and log writers format blocks of ``BLOCK_ROWS`` rows at
a time, with the bytes ``csv.writer`` writes (``csv_fields``) or, for a log,
the bytes json's encoder writes for each record; the log writer does not
call that encoder.

An external trainer is any command that, given a dataset file, a selected-
ids file, an epoch count and a seed, writes such a prediction log; it can
stand in for the built-in trainer in every pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import LogFormatError
from .trainer import RoundLog, ToyDataset


def losses_path(path) -> Path:  # log_round2.jsonl: log_round2.losses.npy
    return Path(path).with_suffix(".losses.npy")


def write_prediction_log(path, log: RoundLog) -> None:
    """Write ``log`` one record a line, with the bytes that
    ``json.JSONEncoder(sort_keys=True)`` gives each record plus "\\n"; its
    losses, if any, with ``np.save`` to ``losses_path(path)``, else remove that.

    Each record is one f-string: the id through json's ASCII string encoder,
    ints as they are, null for losses and a missing column. The ``seq`` texts
    of a block of rows come from one uint8 buffer; records are streamed.
    """
    epochs = log.bits.shape[1]

    def block(lo, hi):
        bits = log.bits[lo:hi]
        # "b, b, ..., b\n" for each row: digits, ", " between them, a line end
        text = np.empty((len(bits), 3 * epochs - 1), np.uint8)
        text[:, 0::3] = bits + 48
        text[:, 1::3] = ord(",")
        text[:, 2::3] = ord(" ")
        text[:, -1] = 10
        seqs = text.tobytes().decode("ascii").split("\n")
        true_labels = (repeat("null") if log.true_labels is None
                       else log.true_labels[lo:hi].tolist())
        return (f'{{"id": {rec_id}, "label": {label}, "losses": null, "seq": [{seq}], '
                f'"true_label": {true_label}}}\n'
                for rec_id, label, seq, true_label in zip(
                    map(encode_basestring_ascii, log.ids[lo:hi]),
                    log.labels[lo:hi].tolist(), seqs, true_labels))

    write_atomic(path, chain.from_iterable(row_blocks(len(log), block)))
    if log.losses is None:
        remove_earlier(losses_path(path), "losses")
    else:
        with atomic_path(losses_path(path), "wb") as fh:
            np.save(fh, np.asarray(log.losses, dtype=np.float64))


# One record exactly as ``write_prediction_log`` lays it out for a log
# without losses is fixed text around five fields; none after the id holds
# a space, so the bulk reader finds each from the line's end:
#   {"id": "<id>", "label": <int>, "losses": null, "seq": [<bits>], "true_label": <int|null>}
_ID_HEAD, _LABEL_HEAD, _SEQ_HEAD, _TRUE_HEAD, _NULL, _BIT = (
    np.frombuffer(text, np.uint8) for text in (
        b'{"id": "', b'", "label": ', b', "losses": null, "seq": [', b'], "true_label": ',
        b"null", b"1, "))
_INT_WIDTH = 20  # the bytes before an int's end: a space, "-" and 18 digits fit
# place value of each byte of that window; its first byte is never a digit
_PLACES = np.array([0] + [10**p for p in range(18, -1, -1)], dtype=np.int64)
_CHUNK_BYTES = 1 << 20
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def read_prediction_log(path) -> RoundLog:
    """Parse a prediction log, reporting the offending line on bad input.

    Every ``seq`` must have the first record's length. ``losses`` and
    ``true_labels`` of the result are None unless every record has them, or
    the (records, epochs) float64 sidecar ``losses_path(path)`` holds them.
    A log without inline losses in ``write_prediction_log``'s exact layout is
    read in bulk; any other (valid or not) is read line by line, which gives
    the same result or names the bad line. The file is opened once, so a pipe
    reads as a file does.
    """
    inline = not (sidecar := losses_path(path)).exists()
    with _open(path) as fh:
        # a pipe cannot seek back: the bulk reader keeps what it read instead
        kept = None if fh.seekable() else []
        log = _read_canonical_log(fh, kept)
        if log is None:  # the line reader starts over at the first byte
            if kept is None:
                fh.seek(0)
            lines = fh if kept is None else chain(io.BytesIO(b"".join(kept)), fh)
            log = _read_log_lines(path, lines, inline)
    if not inline:
        log.losses = np.array(read_npy(sidecar, log.bits.shape))
    return log


def _read_canonical_log(fh, kept: list | None = None) -> RoundLog | None:
    """Read a log whose every line is one canonical record from the binary
    file ``fh``, else None; each chunk read is appended to ``kept``, if given.

    Reads chunks of whole lines, so memory stays near one chunk plus the
    result: each chunk's bits go straight to their rows of one array. Returns
    None, without raising a format error, on the first chunk with another
    layout (losses included), ragged ``seq``, duplicate id, empty file or last
    line without a line end; the line reader then decides.
    """
    ids, bits, labels, true_labels = [], None, [], []
    while chunk := fh.read(_CHUNK_BYTES):
        chunk += fh.readline()
        if kept is not None:
            kept.append(chunk)
        if bits is None:  # the seq text of the first line sets the width
            end = chunk.find(_TRUE_HEAD.tobytes())
            width = end - chunk.rfind(b"[", 0, end) - 1
        if (part := _read_canonical_chunk(chunk, width)) is None:
            return None
        part_ids, part_bits, part_labels, part_true = part
        rows = len(ids) + len(part_ids)
        if bits is None or rows > len(bits):
            # a row for each record the file has room for, at width + 67
            # bytes or more each, or twice the rows so far for a pipe or a
            # file that grew; rows never written are never touched
            grown = np.empty((max(os.fstat(fh.fileno()).st_size // (width + 67),
                                  2 * rows), part_bits.shape[1]), np.int8)
            if bits is not None:
                grown[:len(ids)] = bits[:len(ids)]
            bits = grown
        bits[len(ids):rows] = part_bits
        ids += part_ids
        labels.append(part_labels)
        true_labels.append(part_true)
    if not ids or len(set(ids)) != len(ids):
        return None
    return RoundLog(ids=ids, bits=bits[:len(ids)], losses=None,
                    labels=np.concatenate(labels), true_labels=None
                    if any(t is None for t in true_labels) else np.concatenate(true_labels))


def _read_canonical_chunk(chunk: bytes, width: int):
    """(ids, bits, labels, true labels or None) of a chunk of lines that each
    hold one canonical record with ``width`` bytes of seq text, else None."""
    b = np.frombuffer(chunk, dtype=np.uint8)
    # the shortest record is ``width`` + 67 bytes; as int8, a byte above 0x7f
    # is negative, so the bytes below " " must all be line ends
    if (chunk[-1:] != b"\n" or width < 1 or width % 3 != 1 or len(b) < width + 67):
        return None
    ends = np.flatnonzero(b.view(np.int8) < 32)
    if not (b[ends] == 10).all():
        return None
    true_labels, ok, true_start = _ints_before(b, ends - 1)
    null = ~ok
    if null.any():
        null &= (true_start == ends - 5) & (_windows(b, 4, ends - 5) == _NULL).all(axis=1)
    # the seq and the fixed text around it, which holds no "1": a bit's low
    # bit is the only one left free
    fixed = np.concatenate([_SEQ_HEAD, np.resize(_BIT, width), _TRUE_HEAD])
    cells = _windows(b, len(fixed), true_start - len(fixed))
    labels, label_ok, label_start = _ints_before(b, true_start - len(fixed))
    id_start = np.r_[0, ends[:-1] + 1] + len(_ID_HEAD)
    id_end = label_start - len(_LABEL_HEAD)
    if not ((ok | null).all() and label_ok.all() and (b[ends - 1] == ord("}")).all()
            and (id_end >= id_start).all()
            and (_windows(b, len(_ID_HEAD), id_start - len(_ID_HEAD)) == _ID_HEAD).all()
            and (_windows(b, len(_LABEL_HEAD), id_end) == _LABEL_HEAD).all()
            and ((cells | (fixed == ord("1"))) == fixed).all()):
        return None
    # every id and the byte after it, gathered, that byte made a line end
    sizes = id_end - id_start + 1
    if (sizes == sizes[0]).all():  # ids of one width: a window each
        text = _windows(b, sizes[0], id_start)
        text[:, -1] = 10
    else:
        cut = np.cumsum(sizes)
        text = b[np.arange(cut[-1]) + np.repeat(id_start + sizes - cut, sizes)]
        text[cut - 1] = 10
    text = text.tobytes().decode("ascii")
    ids = text.split("\n")[:-1]
    if "\\" in text or '"' in text:
        try:  # an id holds an escape or a stray '"'
            ids = [json.loads(f'"{i}"') if "\\" in i or '"' in i else i for i in ids]
        except json.JSONDecodeError:
            return None
        if any("\n" in i for i in ids):
            return None  # an escaped line break in an id
    bits = cells[:, len(_SEQ_HEAD):len(_SEQ_HEAD) + width:3] & 1
    return ids, bits.view(np.int8), labels, None if null.any() else true_labels


def _windows(b, width: int, at):
    """The ``width`` bytes of ``b`` from each of ``at``, gathered as one
    ``width``-byte item each. A position before the chunk reads its start
    instead; the line it belongs to fails its checks."""
    items = np.ndarray((len(b) - width + 1,), dtype=f"V{width}", buffer=b, strides=(1,))
    return items[np.maximum(at, 0)].view(np.uint8).reshape(-1, width)


def _ints_before(b, end):
    """The token after the last space of the 20 bytes before each of ``end``: its
    value, whether it is an int ("-" or not, no leading zero, 1 to 18 digits)
    and where it starts. Read from the 2 bytes before each end when every
    token is one digit after a space, else from all 20."""
    at = np.maximum(end - 2, 0)  # a position before the chunk reads its start
    if (b[at] == 32).all():
        digit = b[at + 1] - 48  # wraps every byte but a digit above 9
        if (digit <= 9).all():
            return digit.astype(np.int64), np.ones(len(end), bool), end - 1
    w = _windows(b, _INT_WIDTH, end - _INT_WIDTH)
    # the column after the last space, or _INT_WIDTH without one
    first = _INT_WIDTH - np.argmax(w[:, ::-1] == 32, axis=1)
    lo = min(first.min(), _INT_WIDTH - 1)  # only the widest token's columns are read
    w, first, rows = w[:, lo:], first - lo, np.arange(len(w))
    last = w.shape[1] - 1
    lead = first + (w[rows, np.minimum(first, last)] == ord("-"))  # the first digit's
    digits = w - 48  # wraps every byte but a digit above 9
    in_int = np.arange(last + 1) >= lead[:, None]
    ok = ((lead + lo >= 2) & (lead <= last) & ((digits <= 9) | ~in_int).all(axis=1)
          & ((digits[rows, np.minimum(lead, last)] > 0) | (lead == last)))
    value = np.where(in_int, digits, 0) @ _PLACES[lo:]
    return np.where(lead > first, -value, value), ok, end - _INT_WIDTH + lo + first


def _read_log_lines(path, lines, inline: bool = True) -> RoundLog:
    """The log in ``lines``, the bytes of each line of the log at ``path``."""
    path = Path(path)
    ids, labels, true_labels, seqs, losses = [], [], [], [], []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        line = _utf8(line, path, lineno).strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"invalid JSON: {exc.msg}", path=path, line=lineno)
        if not isinstance(raw, dict) or "id" not in raw or "seq" not in raw:
            raise LogFormatError("record must be an object with 'id' and 'seq'",
                                 path=path, line=lineno)
        seq = raw["seq"]
        if not isinstance(seq, list) or not seq or any(b not in (0, 1) for b in seq):
            raise LogFormatError("'seq' must be a nonempty list of 0/1",
                                 path=path, line=lineno)
        if seqs and len(seq) != len(seqs[0]):
            raise LogFormatError(
                f"'seq' has {len(seq)} entries, the first record has {len(seqs[0])}",
                path=path, line=lineno,
            )
        loss = raw.get("losses")
        if not (loss is None or inline and isinstance(loss, list) and len(loss) == len(seq)):
            what = "or match 'seq' length" if inline else f"beside {losses_path(path)}"
            raise LogFormatError(f"'losses' must be null {what}", path=path, line=lineno)
        rec_id = str(raw["id"])
        if "\n" in rec_id:
            raise LogFormatError(f"id {rec_id!r} holds a line break",
                                 path=path, line=lineno)
        if rec_id in seen:
            raise LogFormatError(f"duplicate id {rec_id!r}", path=path, line=lineno)
        seen.add(rec_id)
        true_label = raw.get("true_label")
        try:
            label = int(raw.get("label", 0))
            true_label = None if true_label is None else int(true_label)
            losses.append(None if loss is None else [float(v) for v in loss])
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"non-numeric label or loss: {exc}",
                                 path=path, line=lineno)
        if not all(_INT64_MIN <= v <= _INT64_MAX for v in (label, true_label)
                   if v is not None):
            raise LogFormatError("label or true_label does not fit in int64",
                                 path=path, line=lineno)
        labels.append(label)
        true_labels.append(true_label)
        ids.append(rec_id)
        seqs.append(seq)
    if not ids:
        raise LogFormatError("log has no records", path=path)
    return RoundLog(
        ids=ids,
        bits=np.array(seqs, dtype=np.int8),
        losses=None if None in losses else np.array(losses, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        true_labels=None if None in true_labels else np.array(true_labels, dtype=np.int64),
    )


def _open(path):
    """``path`` opened to read bytes; failing that, a format error naming it."""
    try:
        return Path(path).open("rb")
    except OSError as exc:
        raise LogFormatError(f"cannot read the file: {exc.strerror or exc}", path=path)


def _utf8(data: bytes, path, line: int = 1) -> str:
    """``data``, from ``line`` of ``path`` on, as UTF-8, or a format error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"invalid UTF-8 byte {data[exc.start]:#04x}", path=path,
                             line=line + data.count(b"\n", 0, exc.start))


def read_npy(path, shape) -> np.ndarray:
    """The float64 array of ``shape`` in the ``.npy`` file at ``path``, or a LogFormatError."""
    try:  # mapped, no pickle: a header that claims more than the file holds fails here
        array = np.lib.format.open_memmap(path, mode="r")
    except (OSError, ValueError) as exc:
        raise LogFormatError(f"cannot read the array: {exc}", path=path) from None
    if array.dtype != np.float64 or array.shape != shape:
        raise LogFormatError(f"must be float64 {shape}, is {array.dtype} {array.shape}", path=path)
    return array


def read_text(path) -> str:
    """The whole file at ``path`` as strict UTF-8, newlines untranslated; a
    format error naming the file if it cannot be read or decoded."""
    with _open(path) as fh:
        return _utf8(fh.read(), path)


# rows formatted per piece of a written file: enough that the per-piece
# calls cost nothing, few enough that a piece stays near a megabyte
BLOCK_ROWS = 10_000
# the characters that make csv.writer (QUOTE_MINIMAL) quote a field
_CSV_SPECIAL = ',"\r\n'


@contextlib.contextmanager
def atomic_path(path, mode="w"):
    """A file opened in ``mode`` on ``<path>.tmp``, its directories made first,
    renamed to ``path`` when the block completes: a crash mid-write leaves the
    old file intact, and a failed write or rename removes the temp file before
    the error propagates. An ``OSError`` of the directories, the write or the
    rename becomes a LogFormatError naming ``path``.

    Text is written as it is, without newline translation.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open(mode, newline=None if "b" in mode else "") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise LogFormatError(f"cannot write the file: {exc}", path=path) from None


def remove_earlier(path, what: str) -> None:
    """Remove the file an earlier run left at ``path``, if any, or raise a LogFormatError."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise LogFormatError(f"cannot remove the earlier {what}: {exc.strerror or exc}",
                             path=path) from None


def write_atomic(path, pieces) -> None:
    """Write the strings ``pieces`` to ``path`` as they are, atomically."""
    with atomic_path(path) as fh:
        fh.writelines(pieces)


def row_blocks(n: int, block):
    """``block(lo, hi)`` for consecutive slices of ``n`` rows, ``BLOCK_ROWS`` each."""
    return (block(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS))


def csv_fields(values) -> list[str]:
    """``str`` of each value, quoted as ``csv.writer`` quotes a field.

    A field holding ``,``, ``"``, ``\\r`` or ``\\n`` is wrapped in ``"`` with
    its inner quotes doubled; any other is written as it is.
    """
    fields = list(values)
    try:
        joined = "".join(fields)
    except TypeError:  # not every value is a str yet
        fields = list(map(str, fields))
        joined = "".join(fields)
    if not any(c in joined for c in _CSV_SPECIAL):
        return fields
    return ['"' + f.replace('"', '""') + '"' if any(c in f for c in _CSV_SPECIAL) else f
            for f in fields]


def write_ids(path, ids) -> None:
    """One id per line, each ended by "\\n"; ``ids`` is a sequence."""
    try:
        text = "\n".join(ids)
    except TypeError:  # not every id is a str yet
        text = "\n".join(map(str, ids))
    write_atomic(path, [text, "\n" if len(ids) else ""])


def read_ids(path) -> list[str]:
    """The ids ``write_ids`` wrote, exactly: one per "\\n"-ended line."""
    ids = read_text(path).split("\n")
    return ids[:-1] if ids[-1] == "" else ids


def rows_of(row_of: dict, ids, path, unknown: str) -> np.ndarray:
    """``row_of[i]`` for each id ``i`` of ``ids``, in order. A LogFormatError
    naming ``path`` if an id is no key (``unknown``, then up to ten of them,
    sorted, as ``repr``) or if ``ids`` holds an id twice."""
    rows = np.fromiter((row_of.get(i, -1) for i in ids), np.intp, len(ids))
    missing = sorted({ids[k] for k in np.flatnonzero(rows < 0)})
    if missing:
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise LogFormatError(f"{unknown}: {', '.join(map(repr, missing[:10]))}{more}", path=path)
    repeated = np.bincount(rows)[rows] > 1
    if repeated.any():
        raise LogFormatError(f"id {ids[repeated.argmax()]!r} appears more than once", path=path)
    return rows


def write_table(path, header, columns) -> None:
    """Write ``header`` and one row per position of ``columns`` (one sequence
    per header cell) with the bytes ``csv.writer`` writes, for two or more
    columns: a float64 array as ``repr``, made once per distinct bit pattern
    (-0.0 and 0.0 keep their own), any other column through ``csv_fields``.
    A block of rows joins one row's pieces repeated, each cell's slot filled
    from its column."""
    n = len(columns[0])
    piece, fill = [], []  # one row's pieces (None: a cell), and (slot, (lo, hi) -> texts)
    for j, column in enumerate(columns):
        before, after = "," if j else "", "\r\n" if j == len(columns) - 1 else ""
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            # each distinct repr carries the separators around it: one slot, no pieces
            distinct, which = np.unique(column.view(np.int64), return_inverse=True)
            reprs = np.array([before + repr(v) + after for v in distinct.view(np.float64).tolist()],
                             dtype=object)
            fill.append((len(piece), lambda lo, hi, r=reprs, w=which: r[w[lo:hi]].tolist()))
            piece.append(None)
        else:
            piece += [before] if before else []
            fill.append((len(piece), lambda lo, hi, c=column: csv_fields(c[lo:hi])))
            piece += [None, after] if after else [None]

    def block(lo, hi):
        parts = piece * (min(hi, n) - lo)
        for slot, texts in fill:
            parts[slot::len(piece)] = texts(lo, hi)
        return "".join(parts)

    write_atomic(path, chain([",".join(csv_fields(header)) + "\r\n"], row_blocks(n, block)))


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """The header (empty for an empty file) and the columns, one list of cells
    per header cell, of the CSV table at ``path``. A row whose width differs
    from the header's (a blank line has none) is a LogFormatError naming the
    file and the line: data row ``k`` is line ``k + 2``."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, [])
        columns = [[] for _ in header]
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise LogFormatError(f"expected {len(header)} fields, got {len(row)}",
                                     path=path, line=line)
            for column, cell in zip(columns, row):
                column.append(cell)
    except csv.Error as exc:  # a field over csv's size limit
        raise LogFormatError(str(exc), path=path, line=reader.line_num) from None
    return header, columns


def parse_cells(path, cells, kind) -> np.ndarray:
    """``kind`` of each cell of a ``read_table`` column of ``path``, as an
    array of that dtype; a cell it rejects is a LogFormatError naming the
    cell's line."""
    values = []
    for line, cell in enumerate(cells, start=2):
        try:
            values.append(kind(cell))
        except (ValueError, OverflowError) as exc:  # overflow: an int beyond int64
            raise LogFormatError(str(exc), path=path, line=line) from None
    return np.array(values, dtype=kind)


def write_dataset_csv(path, ds: ToyDataset) -> None:
    """The dataset table: id, features as ``repr``, observed and true label, split."""
    dim = ds.features.shape[1]
    write_table(path, ["id", *(f"feature_{j}" for j in range(dim)), "observed_label",
                       "true_label", "split"],
                [ds.ids, *ds.features.T, ds.observed_labels, ds.true_labels, ds.split])


def read_dataset_csv(path) -> ToyDataset:
    header, columns = read_table(path)
    if (len(header) < 5 or header[0] != "id"
            or header[-3:] != ["observed_label", "true_label", "split"]):
        raise LogFormatError("header must be id, then one or more feature columns, then "
                             "observed_label,true_label,split", path=path, line=1)
    ids, *features, observed, true, split = columns
    wrong = np.flatnonzero(~np.isin(split, ["train", "test"]))
    if wrong.size:
        raise LogFormatError(f"split must be train or test, got {split[wrong[0]]!r}",
                             path=path, line=int(wrong[0]) + 2)
    if "train" not in split:
        raise LogFormatError("dataset has no train row", path=path)
    seen = set()
    for line, rec_id in enumerate(ids, start=2):
        if "\n" in rec_id:
            raise LogFormatError(f"id {rec_id!r} holds a line break", path=path, line=line)
        if rec_id in seen:
            raise LogFormatError(f"duplicate id {rec_id!r}", path=path, line=line)
        seen.add(rec_id)
    features = np.array([parse_cells(path, c, float) for c in features], dtype=float)
    observed, true = (parse_cells(path, c, np.int64) for c in (observed, true))
    negative = np.flatnonzero((observed < 0) | (true < 0))
    if negative.size:
        raise LogFormatError("labels must be nonnegative", path=path, line=int(negative[0]) + 2)
    return ToyDataset(ids=np.asarray(ids, dtype=object),
                      features=features.reshape(-1, len(ids)).T.copy(), observed_labels=observed,
                      true_labels=true, n_classes=int(max(observed.max(), true.max())) + 1,
                      split=np.asarray(split, dtype="U5"))


def split_command(template: str) -> list[str]:
    """An external trainer's command template split like a shell line, before
    its placeholders are filled: a filled-in path with spaces stays one argument.
    A ValueError names a blank template, an unbalanced quote or a placeholder
    other than {dataset}, {ids}, {out}, {epochs} and {seed}."""
    args = shlex.split(template)  # a ValueError on an unbalanced quote
    if not args:
        raise ValueError("the template names no command")
    try:
        for arg in args:
            arg.format(dataset="d.csv", ids="ids.txt", out="log.jsonl", epochs=1, seed=0)
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        what = f"unknown placeholder {{{exc.args[0]}}}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{what}; the placeholders are {{dataset}}, {{ids}}, {{out}}, "
                         "{epochs} and {seed}") from None
    return args


class ExternalTrainer:
    """Round trainer backed by a subprocess command.

    Model state continuity across rounds is the external command's
    responsibility; this bridge hands it the ids of the surviving rows in
    files numbered by round (``round_counter`` is the last round it ran) and
    validates the log it returns. The command may list the ids in any
    order; the returned log follows ``rows``, and its labels are the
    dataset's, whatever labels the command wrote.
    """

    def __init__(self, command_template: str, dataset_file, workdir, seed: int = 0,
                 needs_losses: bool = False):
        self.command = split_command(command_template)
        self.dataset_file = Path(dataset_file)
        self.workdir = Path(workdir)
        self.seed = seed
        self.needs_losses = needs_losses  # for small_loss: a log without them names its file
        self.round_counter = 0

    def fit_round(self, dataset, rows, epochs: int) -> RoundLog:
        """Run the command on the dataset rows ``rows``; log row r is rows[r].

        The log must cover exactly the ids of ``rows``, in any order, with
        sequences of ``epochs`` entries (the reader already requires them to
        be of equal length).
        """
        self.round_counter += 1
        ids_file = self.workdir / f"ids_round{self.round_counter}.txt"
        out_file = self.workdir / f"log_round{self.round_counter}.jsonl"
        ids = dataset.ids[rows].tolist()
        write_ids(ids_file, ids)
        command = [arg.format(dataset=str(self.dataset_file), ids=str(ids_file),
                              out=str(out_file), epochs=epochs, seed=self.seed)
                   for arg in self.command]
        remove_earlier(out_file, "log")  # an earlier run's log is not this round's
        remove_earlier(losses_path(out_file), "losses")
        try:  # the command's output is read only for its last stderr line
            proc = subprocess.run(command, capture_output=True, encoding="utf-8",
                                  errors="replace", check=False)
        except OSError as exc:  # e.g. no such executable
            raise LogFormatError(f"cannot start the trainer command {shlex.join(command)}: "
                                 f"{exc.strerror or exc}") from None
        if proc.returncode != 0:  # named with the last line of its stderr, if any
            message = [f"trainer command exited with status {proc.returncode}"]
            raise LogFormatError(": ".join(message + proc.stderr.strip().splitlines()[-1:]))

        log = read_prediction_log(out_file)
        order = rows_of({i: row for row, i in enumerate(log.ids)}, ids, out_file,
                        "log is missing ids")
        if len(log) > len(ids):  # the log holds ids that ``rows`` does not
            rows_of({i: row for row, i in enumerate(ids)}, log.ids, out_file,
                    "log contains unexpected ids")
        if log.bits.shape[1] != epochs:
            raise LogFormatError(f"sequences have length {log.bits.shape[1]}, expected {epochs}",
                                 path=out_file)
        if self.needs_losses and log.losses is None:
            raise LogFormatError("the small_loss strategy needs 'losses' in every record",
                                 path=out_file)
        return RoundLog(ids=ids, bits=log.bits[order],
                        losses=None if log.losses is None else log.losses[order],
                        labels=dataset.observed_labels[rows],
                        true_labels=dataset.true_labels[rows])
