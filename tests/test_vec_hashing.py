"""The batched blake2b path must match ``stable_hash`` and the samplers bit-for-bit.

The vectorized engine's exactness guarantee bottoms out here: every quorum
and poll-list membership it computes comes from
:func:`repro.vec.hashing.batch_digest_mod` /
:func:`repro.vec.hashing.first_distinct_rows`, which reimplement the one
blake2b compression the samplers perform per draw as uint64 lane arithmetic.
These tests pin the equivalence directly against ``hashlib`` (via
:func:`repro.net.rng.stable_hash`) and against the Python samplers' member
loops, including the per-row fallbacks for oversized messages and
collision-heavy rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AERConfig
from repro.net.rng import stable_hash
from repro.vec import hashing
from repro.vec.hashing import (
    batch_digest_mod,
    encode_parts,
    first_distinct_rows,
)


def _member_loop(parts, size, n):
    """The samplers' counter loop: (sorted members, counters drawn)."""
    members, seen, counter = [], set(), 0
    while len(members) < size:
        candidate = stable_hash(*parts, counter) % n
        counter += 1
        if candidate not in seen:
            seen.add(candidate)
            members.append(candidate)
    return sorted(members), counter


class TestBatchDigestMod:
    def test_matches_stable_hash(self):
        n = 997
        prefix = encode_parts(12345, "H", "0110")
        xs = np.arange(200, dtype=np.int64)
        counters = np.arange(200, dtype=np.int64) % 7
        got = batch_digest_mod(prefix, [xs, counters], n)
        expected = [
            stable_hash(12345, "H", "0110", int(x), int(c)) % n
            for x, c in zip(xs, counters)
        ]
        assert got.tolist() == expected

    def test_mixed_digit_lengths(self):
        # Values spanning 1-7 decimal digits land in different shape buckets;
        # every bucket must still match the reference encoding.
        n = 101
        prefix = encode_parts(7, "J")
        values = np.array([0, 9, 10, 99, 100, 123456, 9999999], dtype=np.int64)
        got = batch_digest_mod(prefix, [values], n)
        expected = [stable_hash(7, "J", int(v)) % n for v in values]
        assert got.tolist() == expected

    def test_oversized_message_falls_back_to_hashlib(self):
        # A prefix near the 128-byte block boundary forces the per-row path.
        long_string = "x" * 150
        prefix = encode_parts(1, long_string)
        assert len(prefix) > 128
        values = np.array([3, 14, 159], dtype=np.int64)
        got = batch_digest_mod(prefix, [values], 271)
        expected = [stable_hash(1, long_string, int(v)) % 271 for v in values]
        assert got.tolist() == expected


    def test_one_call_crosses_digit_lengths_in_both_columns(self):
        # rows of every (x digits, counter digits) shape share one stream
        n = 20011
        prefix = encode_parts(4, "I", "01" * 30)
        xs = np.repeat([9, 10, 99, 100, 9999, 10000], 4)
        counters = np.tile([8, 9, 10, 11], 6)
        got = batch_digest_mod(prefix, [xs, counters], n)
        expected = [
            stable_hash(4, "I", "01" * 30, int(x), int(c)) % n
            for x, c in zip(xs, counters)
        ]
        assert got.tolist() == expected

    @pytest.mark.parametrize("msg_len", [127, 128, 129])
    def test_block_boundary_messages(self, msg_len, monkeypatch):
        # a one-digit value encodes to 5 bytes and the prefix part to
        # 4 + len(repr(text)) bytes; 128 bytes is the last one-block message
        text = "a" * (msg_len - 11)
        prefix = encode_parts(text)
        assert len(prefix) + len(encode_parts(7)) == msg_len
        slow_rows = []
        real = hashing._hashlib_rows

        def counting(prefix, columns, tails, n):
            slow_rows.append(len(columns[0]))
            return real(prefix, columns, tails, n)

        monkeypatch.setattr(hashing, "_hashlib_rows", counting)
        values = np.array([7, 3, 0, 9], dtype=np.int64)
        got = batch_digest_mod(prefix, [values], 1009)
        assert got.tolist() == [stable_hash(text, int(v)) % 1009 for v in values]
        assert slow_rows == ([4] if msg_len > 128 else [])

    def test_block_boundary_splits_one_call(self):
        # two-digit values push a 128-byte message to 129: those rows alone
        # take hashlib, the rest stay on the lanes, in their original order
        text = "b" * 117
        values = np.array([5, 42, 7, 10, 99, 0], dtype=np.int64)
        got = batch_digest_mod(encode_parts(text), [values], 7919)
        assert got.tolist() == [stable_hash(text, int(v)) % 7919 for v in values]


class TestFirstDistinctRows:
    def test_matches_sampler_member_loop(self):
        n, size = 211, 9
        prefix = encode_parts(42, "H", "1010")
        xs = np.arange(64, dtype=np.int64)
        got = first_distinct_rows(prefix, [xs], size, n)
        for i, x in enumerate(xs):
            members, seen, counter = [], set(), 0
            while len(members) < size:
                candidate = stable_hash(42, "H", "1010", int(x), counter) % n
                counter += 1
                if candidate not in seen:
                    seen.add(candidate)
                    members.append(candidate)
            assert got[i].tolist() == sorted(members)

    def test_collision_heavy_rows_resolve_exactly(self):
        # n barely above size guarantees duplicate draws, exercising the
        # per-row exact fallback behind the batched extra_draws window.
        n, size = 5, 4
        prefix = encode_parts(0, "J")
        xs = np.arange(20, dtype=np.int64)
        got = first_distinct_rows(prefix, [xs], size, n, extra_draws=0)
        for i, x in enumerate(xs):
            members, seen, counter = [], set(), 0
            while len(members) < size:
                candidate = stable_hash(0, "J", int(x), counter) % n
                counter += 1
                if candidate not in seen:
                    seen.add(candidate)
                    members.append(candidate)
            assert got[i].tolist() == sorted(members)

    @pytest.mark.parametrize("extra_draws", [0, 4])
    def test_collision_paths_of_the_exact_size_pass(self, extra_draws, monkeypatch):
        # n = 20, size = 8: most rows repeat a draw within their first 8
        # counters; some of those resolve inside the extra window and the
        # rest need the per-row loop
        n, size = 20, 8
        prefix = encode_parts(9, "H", "0011")
        xs = np.arange(100, dtype=np.int64)
        looped = []
        real = hashing._py_first_distinct

        def counting(prefix, parts, size, n):
            looped.append(parts)
            return real(prefix, parts, size, n)

        monkeypatch.setattr(hashing, "_py_first_distinct", counting)
        got = first_distinct_rows(prefix, [xs], size, n, extra_draws=extra_draws)
        used = []
        for i, x in enumerate(xs):
            members, counters = _member_loop((9, "H", "0011", int(x)), size, n)
            assert got[i].tolist() == members
            used.append(counters)
        assert min(used) == size  # rows the exact-size pass accepts
        assert any(size < c <= size + 4 for c in used)  # window-resolved rows
        assert max(used) > size + 4  # rows left to the per-row loop
        assert len(looped) == sum(c > size + extra_draws for c in used)

    def test_counters_cross_a_digit_length(self):
        # size 14 draws counters 0..13 (9 -> 10) for x of 1 to 5 digits
        n, size = 20011, 14
        prefix = encode_parts(1, "I", "10" * 30)
        xs = np.array([0, 9, 10, 99, 100, 9999, 10000, 20010], dtype=np.int64)
        got = first_distinct_rows(prefix, [xs], size, n)
        for i, x in enumerate(xs):
            assert got[i].tolist() == _member_loop((1, "I", "10" * 30, int(x)), size, n)[0]

    def test_matches_quorum_sampler(self):
        config = AERConfig.for_system(256, sampler_seed=3)
        samplers = config.shared_samplers()
        s = "1" * config.string_length
        table = samplers.pull.table(s)
        xs = np.arange(256, dtype=np.int64)
        prefix = encode_parts(samplers.pull.spec.seed, samplers.pull.name, s)
        got = first_distinct_rows(prefix, [xs], samplers.pull.quorum_size, 256)
        for x in range(256):
            assert got[x].tolist() == list(table.quorum(x))

    def test_matches_poll_sampler(self):
        config = AERConfig.for_system(128, sampler_seed=5)
        samplers = config.shared_samplers()
        poll = samplers.poll
        rows = [(x, r) for x in range(16) for r in (0, 1, poll.label_space - 1)]
        xs = np.array([x for x, _ in rows], dtype=np.int64)
        rs = np.array([r for _, r in rows], dtype=np.int64)
        prefix = encode_parts(poll.spec.seed, poll.name)
        got = first_distinct_rows(prefix, [xs, rs], poll.list_size, 128)
        for i, (x, r) in enumerate(rows):
            assert got[i].tolist() == sorted(poll.entry(x, r).members)


class TestEncodeParts:
    def test_matches_stable_hash_encoding(self):
        # encode_parts must be the same length-prefixed repr encoding that
        # stable_hash absorbs — checked indirectly via a digest round-trip.
        import hashlib

        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(encode_parts(11, "name", 3))
        assert int.from_bytes(hasher.digest(), "big") == stable_hash(11, "name", 3)
