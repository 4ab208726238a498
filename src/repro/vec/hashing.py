"""Batched blake2b sampler draws, bit-identical to :func:`repro.net.rng.stable_hash`.

The samplers draw quorum members as ``stable_hash(seed, name, s, x, counter)
% n`` — a 16-byte blake2b digest over length-prefixed ``repr`` encodings.
Every message hashed this way is far below one blake2b block (128 bytes), so
a draw is exactly **one** compression of a zero-padded block with the final
flag set.  This module evaluates millions of such compressions at once, as
vectorized uint64 arithmetic over sixteen state lanes of up to ``_BATCH``
draws each.

A call hashes ``rows × counters`` messages ``prefix ‖ row parts ‖ counter``,
and most of each message is the same for every draw, so the work is split
by what it depends on:

* **message words** — words made only of prefix bytes or zero padding are
  numpy scalars (zero words are skipped outright), and only the words that
  hold digits become lanes.  Each row's digits are encoded once per row, the
  counter's once per distinct ``(row end, counter)`` pair, and a lane word is
  their sum;
* **one stream per call** — rows of every digit length compress together,
  each lane carrying its own message length in ``v[12]``;
* **folded lead-in** — the leading compression steps whose inputs do not
  depend on the digits (most of round 0) are evaluated once per
  ``(row end, counter)`` pair, and the lanes start from those values;
* **dead tail** — the last-round steps that cannot reach the 16 digest
  bytes are never run.

Bit-identity is non-negotiable — the whole vectorized backend inherits its
exactness guarantee from these draws matching ``hashlib`` — so anything the
fast path cannot represent (a message longer than one block, a row that
needs more counter draws than were batched) falls back to ``hashlib``
per-row.  ``tests/test_vec_hashing.py`` pins the equivalence directly
against ``stable_hash`` and the Python samplers.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

#: blake2b initialisation vector (RFC 7693, section 2.6)
_IV = (
    0x6A09E667F3BCC908,
    0xBB67AE8584CAA73B,
    0x3C6EF372FE94F82B,
    0xA54FF53A5F1D36F1,
    0x510E527FADE682D1,
    0x9B05688C2B3E6C1F,
    0x1F83D9ABFB41BD6B,
    0x5BE0CD19137E2179,
)

#: parameter-block word 0 for digest_size=16, key=0, fanout=1, depth=1
_PARAM0 = 0x01010010

#: blake2b message schedule (RFC 7693, section 2.7)
_SIGMA = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3),
    (11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4),
    (7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8),
    (9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13),
    (2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9),
    (12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11),
    (13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10),
    (6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5),
    (10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0),
)

#: the quarter-round wiring of one blake2b round: four columns, four diagonals
_MIX = (
    (0, 4, 8, 12),
    (1, 5, 9, 13),
    (2, 6, 10, 14),
    (3, 7, 11, 15),
    (0, 5, 10, 15),
    (1, 6, 11, 12),
    (2, 7, 8, 13),
    (3, 4, 9, 14),
)

#: in-place lane operations of the compression: ``v[dst] += v[arg]``,
#: ``v[dst] ^= v[arg]``, ``v[dst] = rotr(v[dst], arg)``, ``v[dst] += m[arg]``
_ADD, _XOR, _ROTR, _MSG = range(4)

#: uint64 shift amounts of the four blake2b rotations and their complements
_SHIFTS = {r: np.uint64(r) for r in (16, 24, 32, 40, 48, 63, 1)}


def _compression_ops() -> tuple:
    """The twelve blake2b rounds as a flat op list, minus the dead tail.

    Only ``v[0..1] ^ v[8..9]`` (the 16-byte digest) is read after the last
    round, so the ops whose result cannot reach those words are dropped.
    """
    ops = []
    for rnd in range(12):
        s = _SIGMA[rnd % 10]
        for g, (a, b, c, d) in enumerate(_MIX):
            for word, r1, r2 in ((s[2 * g], 32, 24), (s[2 * g + 1], 16, 63)):
                ops += [
                    (_ADD, a, b), (_MSG, a, word), (_XOR, d, a), (_ROTR, d, r1),
                    (_ADD, c, d), (_XOR, b, c), (_ROTR, b, r2),
                ]
    # every op reads its destination, so a word once live stays live
    live = {0, 1, 8, 9}
    kept = []
    for op in reversed(ops):
        if op[1] in live:
            kept.append(op)
            if op[0] in (_ADD, _XOR):
                live.add(op[2])
    return tuple(reversed(kept))


_OPS = _compression_ops()

#: draws per compression batch — sized so the 16 state lanes, the scratch
#: lane and the few message lanes (~5 MiB at 2**15) stay cache-resident
_BATCH = 1 << 15

#: reusable uint64 workspace lanes, allocated on first use; temporaries this
#: size would otherwise be mmap'd and faulted per operation
_WORKSPACE: List[np.ndarray] = []


def encode_parts(*parts: object) -> bytes:
    """The canonical length-prefixed encoding of :func:`repro.net.rng.absorb`."""
    out = bytearray()
    for part in parts:
        encoded = repr(part).encode("utf-8")
        out += len(encoded).to_bytes(4, "big")
        out += encoded
    return bytes(out)


def _workspace(count: int, width: int) -> List[np.ndarray]:
    """``count`` reusable uint64 lanes of ``width`` elements."""
    if _WORKSPACE and len(_WORKSPACE[0]) < width:
        _WORKSPACE.clear()
    while len(_WORKSPACE) < count:
        _WORKSPACE.append(np.empty(max(_BATCH, width), dtype=np.uint64))
    return [lane[:width] for lane in _WORKSPACE[:count]]


def _run(ops: Sequence[tuple], v: List[np.ndarray], m: list, scratch: np.ndarray) -> None:
    """Apply compression ops in place to the state words ``v``."""
    for kind, dst, arg in ops:
        x = v[dst]
        if kind == _ADD:
            np.add(x, v[arg], out=x)
        elif kind == _XOR:
            np.bitwise_xor(x, v[arg], out=x)
        elif kind == _MSG:
            np.add(x, m[arg], out=x)
        else:
            np.right_shift(x, _SHIFTS[arg], out=scratch)
            np.left_shift(x, _SHIFTS[64 - arg], out=x)
            np.bitwise_or(x, scratch, out=x)


def _fold(m: list, lane_words: Sequence[int], msg_lens: np.ndarray) -> tuple:
    """Evaluate every op that does not depend on a lane, once per lane code.

    ``m`` holds the constant message words (``None`` for zero words) and
    ``msg_lens`` the message length of each lane code.  Returns the state
    as sixteen ``len(msg_lens)`` tables and the ops still to run per lane.
    An op is deferred when it reads a lane message word or touches a word
    an earlier deferred op touched; the ops evaluated here therefore touch
    none of the deferred ops' words, and moving them first is exact.
    """
    tables = [np.full(len(msg_lens), _IV[i % 8], dtype=np.uint64) for i in range(16)]
    tables[0] ^= np.uint64(_PARAM0)
    tables[12] ^= msg_lens.astype(np.uint64)
    np.invert(tables[14], out=tables[14])
    scratch = np.empty(len(msg_lens), dtype=np.uint64)
    lanes = set(lane_words)
    tainted: set = set()
    deferred = []
    for op in _OPS:
        kind, dst, arg = op
        if kind == _MSG and arg not in lanes and m[arg] is None:
            continue  # adding a zero word
        touched = (dst, arg) if kind in (_ADD, _XOR) else (dst,)
        if (kind == _MSG and arg in lanes) or tainted.intersection(touched):
            tainted.update(touched)
            deferred.append(op)
        else:
            _run((op,), tables, m, scratch)
    return tables, tuple(deferred)


def _digit_lengths(values: np.ndarray) -> np.ndarray:
    """Decimal digit count of each (non-negative) value."""
    lengths = np.ones(len(values), dtype=np.int64)
    power = 10
    while True:
        above = values >= power
        if not above.any():
            return lengths
        lengths += above
        power *= 10


def _hashlib_rows(
    prefix: bytes, columns: Sequence[np.ndarray], tails: Sequence[bytes], n: int
) -> np.ndarray:
    """The exact per-message path, for rows whose messages exceed one block."""
    out = np.empty((len(columns[0]), len(tails)), dtype=np.int64)
    for i in range(len(out)):
        head = prefix + encode_parts(*[int(c[i]) for c in columns])
        for j, tail in enumerate(tails):
            digest = hashlib.blake2b(head + tail, digest_size=16).digest()
            out[i, j] = int.from_bytes(digest, "big") % n
    return out


def _message_words(prefix: bytes, columns: Sequence[np.ndarray], lengths, tails) -> tuple:
    """The sixteen message words of every ``(row, tail)`` message, factored.

    Returns ``m`` (constant words as numpy scalars, ``None`` for zero
    words), the lane words as ``(word, per-row part, per-code part)``, each
    row's code row and the message length of every code.  A lane word of
    row ``i`` and tail ``j`` is ``row_part[i] + code_part[code[i]·D + j]``.
    """
    draws = len(tails)
    rows = len(columns[0])
    tail_lens = np.array([len(t) for t in tails], dtype=np.int64)
    head_len = len(prefix) + sum(4 + k for k in lengths)
    # the lane window: the message words the row and counter parts reach
    first_word = len(prefix) // 8
    base = 8 * first_word
    window = (int(head_len.max() + tail_lens.max()) + 7) // 8 - first_word
    row_bytes = np.zeros((rows, 8 * window), dtype=np.uint8)
    row_bytes[:, : len(prefix) - base] = np.frombuffer(prefix[base:], dtype=np.uint8)
    flat = row_bytes.reshape(-1)
    pos = np.arange(rows, dtype=np.int64) * (8 * window) + (len(prefix) - base)
    for column, k in zip(columns, lengths):
        flat[pos + 3] = k  # 4-byte big-endian length, k < 256
        value = column.copy()
        last = pos + 3 + k  # the least significant digit's byte
        for j in range(int(k.max())):
            has = k > j
            flat[(last - j)[has]] = 48 + value[has] % 10
            value //= 10
        pos = pos + 4 + k
    row_words = row_bytes.view("<u8")

    # the tail sits right after the row part, so its words depend only on
    # (row end, tail): they are encoded once per such pair
    ends, code = np.unique(head_len, return_inverse=True)
    tail_bytes = np.zeros((len(ends), draws, 8 * window), dtype=np.uint8)
    for i, end in enumerate(ends.tolist()):
        for j, tail in enumerate(tails):
            at = end - base
            tail_bytes[i, j, at : at + len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    tail_words = tail_bytes.view("<u8").reshape(len(ends) * draws, window)
    msg_lens = (ends[:, None] + tail_lens[None, :]).reshape(-1)

    m: list = [None] * 16
    for w in range(first_word):
        m[w] = np.uint64(int.from_bytes(prefix[8 * w : 8 * w + 8], "little")) or None
    lanes = []
    for w in range(window):
        head, tail = row_words[:, w], np.ascontiguousarray(tail_words[:, w])
        if (head == head[0]).all() and (tail == tail[0]).all():
            m[first_word + w] = np.uint64(head[0] + tail[0]) or None
        else:
            lanes.append((first_word + w, head, tail))
    return m, lanes, code, msg_lens


def _digests(
    prefix: bytes, columns: Sequence[np.ndarray], counters: Optional[Sequence[int]], n: int
) -> np.ndarray:
    """``stable_hash(*prefix_parts, *row_i, counters[j]) % n`` as a ``(rows, D)`` matrix.

    ``columns`` hold the row parts (non-negative int64 arrays); with
    ``counters=None`` no counter part is absorbed and ``D = 1``.
    """
    tails = [b""] if counters is None else [encode_parts(int(c)) for c in counters]
    draws = len(tails)
    rows = len(columns[0])
    out = np.empty((rows, draws), dtype=np.int64)
    if rows == 0 or draws == 0:
        return out
    lengths = [_digit_lengths(c) for c in columns]
    msg_len = len(prefix) + sum(4 + k for k in lengths) + max(len(t) for t in tails)
    fast = msg_len <= 128
    if not fast.all():
        slow = np.nonzero(~fast)[0]
        out[slow] = _hashlib_rows(prefix, [c[slow] for c in columns], tails, n)
        if fast.any():
            keep = np.nonzero(fast)[0]
            out[keep] = _digests(prefix, [c[keep] for c in columns], counters, n)
        return out

    m, lane_words, row_code, msg_lens = _message_words(prefix, columns, lengths, tails)
    tables, ops = _fold(m, [word for word, _, _ in lane_words], msg_lens)
    modulus = np.uint64(n)
    shift = np.uint64((1 << 64) % n)
    step = max(1, _BATCH // draws)
    lanes = _workspace(17 + len(lane_words), step * draws)
    offsets = np.arange(draws, dtype=np.intp)
    for start in range(0, rows, step):
        stop = min(rows, start + step)
        count = (stop - start) * draws
        v = [lane[:count] for lane in lanes[:16]]
        scratch = lanes[16][:count]
        code = (row_code[start:stop, None] * draws + offsets).reshape(-1)
        for lane, table in zip(v, tables):
            np.take(table, code, out=lane, mode="clip")
        for lane, (word, head, tail) in zip(lanes[17:], lane_words):
            lane = lane[:count]
            np.take(tail, code, out=lane, mode="clip")
            grid = lane.reshape(stop - start, draws)
            np.add(grid, head[start:stop, None], out=grid)
            m[word] = lane
        _run(ops, v, m, scratch)
        # big-endian digest value = byteswap(h0)·2^64 + byteswap(h1)
        h0, h1 = v[0], v[1]
        np.bitwise_xor(h0, v[8], out=h0)
        np.bitwise_xor(h0, np.uint64(_IV[0] ^ _PARAM0), out=h0)
        np.bitwise_xor(h1, v[9], out=h1)
        np.bitwise_xor(h1, np.uint64(_IV[1]), out=h1)
        for h in (h0, h1):
            h.byteswap(inplace=True)
            np.remainder(h, modulus, out=h)
        np.multiply(h0, shift, out=h0)
        np.add(h0, h1, out=h0)
        np.remainder(h0, modulus, out=h0)
        out[start:stop] = h0.reshape(stop - start, draws)
    return out


def batch_digest_mod(prefix: bytes, columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Vectorized ``stable_hash(*prefix_parts, c0[i], c1[i], ...) % n``.

    ``prefix`` is the already-encoded constant part list (via
    :func:`encode_parts`); ``columns`` are equal-length arrays of
    non-negative integers, each absorbed as one further part per row.
    Rows whose encoded message exceeds one blake2b block take the exact
    ``hashlib`` path.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    return _digests(prefix, columns, None, n).reshape(-1)


def _py_first_distinct(prefix: bytes, parts: Sequence[int], size: int, n: int) -> List[int]:
    """Exact per-row fallback mirroring the samplers' counter loop."""
    base = hashlib.blake2b(digest_size=16)
    base.update(prefix)
    base.update(encode_parts(*parts))
    members: List[int] = []
    seen = set()
    counter = 0
    while len(members) < size:
        hasher = base.copy()
        hasher.update(encode_parts(counter))
        candidate = int.from_bytes(hasher.digest(), "big") % n
        counter += 1
        if candidate not in seen:
            seen.add(candidate)
            members.append(candidate)
    return sorted(members)


def first_distinct_rows(
    prefix: bytes,
    columns: Sequence[np.ndarray],
    size: int,
    n: int,
    extra_draws: int = 4,
    dtype=np.int64,
) -> np.ndarray:
    """Sorted first-``size``-distinct draws per row — the samplers' member loop.

    For each row ``i`` the draw sequence is ``stable_hash(*prefix, *cols[i],
    counter) % n`` for ``counter = 0, 1, ...``; the row's members are the
    first ``size`` distinct values, returned sorted (the samplers' canonical
    representation).  Every row hashes counters ``0..size-1`` and is done
    when those draws are distinct.  The rare row with an in-row collision
    hashes ``extra_draws`` more counters and takes the first ``size``
    distinct of the window; a row with more collisions than that is
    resolved exactly via :func:`_py_first_distinct`.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    rows = len(columns[0])
    # members are < n, so callers can ask for a narrow output dtype directly
    # instead of paying for an int64 matrix plus a cast copy
    out = np.empty((rows, size), dtype=dtype)
    # chunk so the (span, size) int64 draw matrix and its sorted copy stay a
    # few MB each; a span·size of half a million still feeds full batches
    row_chunk = max(1, (512 << 10) // max(1, size))
    for start in range(0, rows, row_chunk):
        stop = min(rows, start + row_chunk)
        chunk = [c[start:stop] for c in columns]
        values = _digests(prefix, chunk, range(size), n)
        ranked = np.sort(values, axis=1)
        out[start:stop] = ranked
        collided = np.nonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))[0]
        if len(collided) == 0:
            continue
        hit = [c[collided] for c in chunk]
        window = values[collided]
        if extra_draws > 0:
            extra = _digests(prefix, hit, range(size, size + extra_draws), n)
            window = np.hstack([window, extra])
        draws = window.shape[1]
        order = np.argsort(window, axis=1, kind="stable")
        ranked = np.take_along_axis(window, order, axis=1)
        dup_sorted = np.zeros((len(collided), draws), dtype=bool)
        dup_sorted[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
        duplicate = np.empty_like(dup_sorted)
        np.put_along_axis(duplicate, order, dup_sorted, axis=1)
        distinct_rank = np.cumsum(~duplicate, axis=1)
        keep = ~duplicate & (distinct_rank <= size)
        resolved = keep.sum(axis=1) == size
        if resolved.any():
            picked = window[resolved][keep[resolved]].reshape(-1, size)
            out[start + collided[resolved]] = np.sort(picked, axis=1)
        for i in np.nonzero(~resolved)[0]:
            parts = [int(c[i]) for c in hit]
            out[start + collided[i]] = _py_first_distinct(prefix, parts, size, n)
    return out
