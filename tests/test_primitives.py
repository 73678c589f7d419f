import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dbvsim import primitives
from dbvsim.primitives import (
    FIELD_POLYNOMIALS,
    SAMPLER_STREAM_VERSION,
    IndexSet,
    MacKey,
    MacKeys,
    SamplerKey,
    encode_response_claim,
    gf_mul,
    mac_forgery_bound,
    mac_sign,
    mac_sign_rows,
    mac_sign_rows_from,
    mac_verify,
    random_index_rows,
    sample_indices,
    sample_indices_rows,
    sampler_guarantee,
    sampler_key_rows,
)


# ---------------------------------------------------------------------------
# field arithmetic


def _poly_mul_mod(a: int, b: int, f: int) -> int:
    deg = f.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= f
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


class TestFieldPolynomials:
    @pytest.mark.parametrize("s", sorted(FIELD_POLYNOMIALS))
    def test_irreducible(self, s):
        # f divides x^(2^s) - x, and gcd(x^(2^(s/2)) - x, f) = 1 (s is a
        # power of two, so s/2 covers every proper subfield degree).
        f = FIELD_POLYNOMIALS[s]
        x = 0b10
        t = x
        for _ in range(s):
            t = _poly_mul_mod(t, t, f)
        assert t == x, f"x^(2^{s}) != x mod f"
        t = x
        for _ in range(s // 2):
            t = _poly_mul_mod(t, t, f)
        assert _poly_gcd(t ^ x, f) == 1

    def test_mul_basics(self):
        assert gf_mul(0, 123, 8) == 0
        assert gf_mul(1, 123, 8) == 123
        # commutativity and distributivity spot checks
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(0, 256, 3))
            assert gf_mul(a, b, 8) == gf_mul(b, a, 8)
            assert gf_mul(a, b ^ c, 8) == gf_mul(a, b, 8) ^ gf_mul(a, c, 8)


# ---------------------------------------------------------------------------
# MAC


def _mul_table(s=8):
    t = np.zeros((256, 256), dtype=np.uint8)
    for a in range(256):
        for b in range(256):
            t[a, b] = gf_mul(a, b, s)
    return t


def _hash_all_points(table, blocks):
    """Polynomial part of the tag for every field point a, vectorized."""
    a = np.arange(256)
    acc = np.zeros(256, dtype=np.uint8)
    for blk in blocks:
        acc = table[acc ^ blk, a]
    return acc


def _blocks_of(message_bits, s=8):
    from dbvsim.primitives import _to_blocks

    return _to_blocks(np.asarray(message_bits, dtype=np.uint8), s)


def _reference_blocks(message_bits, field_bits):
    """The first _to_blocks: unpacked prefix, bit-level padding and one
    int.from_bytes per block."""
    bits = np.asarray(message_bits, dtype=np.uint8).ravel()
    prefix = np.unpackbits(np.frombuffer(len(bits).to_bytes(8, "big"), dtype=np.uint8))
    all_bits = np.concatenate([prefix, bits])
    pad = (-len(all_bits)) % field_bits
    if pad:
        all_bits = np.concatenate([all_bits, np.zeros(pad, dtype=np.uint8)])
    raw = np.packbits(all_bits).tobytes()
    step = field_bits // 8
    return [int.from_bytes(raw[i : i + step], "big") for i in range(0, len(raw), step)]


def _reference_mac(key, message_bits):
    """Horner's rule over the bit-loop gf_mul: the oracle for mac_sign."""
    acc = 0
    for blk in _reference_blocks(message_bits, key.field_bits):
        acc = gf_mul(acc ^ blk, key.a, key.field_bits)
    return acc ^ key.b


def _points(s):
    """Field points, with the edge points 0, 1 and 2**s - 1 drawn often."""
    top = (1 << s) - 1
    return st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top))


class TestMac:
    @given(st.lists(st.integers(0, 1), max_size=200), st.integers(0, 2**63))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, bits, seed):
        rng = np.random.default_rng(seed)
        key = MacKey.generate(rng, 64)
        msg = np.array(bits, dtype=np.uint8)
        assert mac_verify(key, msg, mac_sign(key, msg))

    @pytest.mark.parametrize("s", sorted(FIELD_POLYNOMIALS))
    @given(data=st.data(), bits=st.lists(st.integers(0, 1), max_size=700))
    @settings(max_examples=40, deadline=None)
    def test_matches_gf_mul_oracle(self, s, data, bits):
        key = MacKey(s, data.draw(_points(s)), data.draw(st.integers(0, (1 << s) - 1)))
        msg = np.array(bits, dtype=np.uint8)
        assert mac_sign(key, msg) == _reference_mac(key, msg)

    @pytest.mark.parametrize("s", sorted(FIELD_POLYNOMIALS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_window_tables_match_gf_mul(self, s, data):
        a = data.draw(_points(s))
        tables = MacKey(s, a, 0).window_tables
        assert len(tables) == s // 4
        for j, table in enumerate(tables):
            assert table == tuple(gf_mul(a, v << 4 * j, s) for v in range(16))

    def test_window_tables_built_once_outside_key_fields(self):
        key, twin = MacKey(64, 5, 7), MacKey(64, 5, 7)
        tables = key.window_tables
        assert key.window_tables is tables
        assert key == twin and hash(key) == hash(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.a = 3

    def test_flipped_tag_rejected(self):
        rng = np.random.default_rng(0)
        key = MacKey.generate(rng, 64)
        msg = np.ones(32, dtype=np.uint8)
        tag = mac_sign(key, msg)
        assert not mac_verify(key, msg, tag ^ 1)

    def test_out_of_range_tag_rejected(self):
        key = MacKey(8, 3, 5)
        msg = np.zeros(4, dtype=np.uint8)
        assert not mac_verify(key, msg, None)
        assert not mac_verify(key, msg, 1 << 8)

    def test_length_extension_blocked(self):
        # zero-padding is disambiguated by the length prefix
        key = MacKey(8, 7, 11)
        short = np.array([1, 0, 1], dtype=np.uint8)
        padded = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
        assert mac_sign(key, short) != mac_sign(key, padded) or not np.array_equal(
            _blocks_of(short), _blocks_of(padded)
        )
        assert _blocks_of(short) != _blocks_of(padded)

    def test_forgery_bound_formula(self):
        assert mac_forgery_bound(64, 64) == pytest.approx(2 / 2**64)
        assert mac_forgery_bound(0, 8) == pytest.approx(8 / 256)  # prefix alone

    def test_exhaustive_forgery_bound_s8(self):
        """Best tag-consistent forgery over all 2^16 keys succeeds <= L/256."""
        table = _mul_table()
        m = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        m2 = m.copy()
        m2[3] ^= 1
        blocks = _blocks_of(m)
        blocks2 = _blocks_of(m2)
        L = max(len(blocks), len(blocks2))
        h1 = _hash_all_points(table, blocks)
        h2 = _hash_all_points(table, blocks2)
        # Keys are (a, b); observed tag t = h1[a]^b, forged target u = h2[a]^b.
        a_grid, b_grid = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        t = h1[a_grid] ^ b_grid
        u = h2[a_grid] ^ b_grid
        joint = np.zeros((256, 256), dtype=np.int64)
        np.add.at(joint, (t.ravel(), u.ravel()), 1)
        best_success = joint.max(axis=1).sum()  # optimal (m2, u) response per t
        assert best_success <= L * 256
        assert best_success / 2**16 <= L / 256

    def test_one_bit_flip_tag_collisions_bounded_s8(self):
        table = _mul_table()
        rng = np.random.default_rng(21)
        m = rng.integers(0, 2, 16).astype(np.uint8)
        m2 = m.copy()
        m2[7] ^= 1
        b1 = _blocks_of(m)
        b2 = _blocks_of(m2)
        L = max(len(b1), len(b2))
        h1 = _hash_all_points(table, b1)
        h2 = _hash_all_points(table, b2)
        # tags collide iff the polynomial difference vanishes at a; b cancels
        colliding_keys = int((h1 == h2).sum()) * 256
        assert colliding_keys / 2**16 <= L / 256

    def test_random_tag_success_is_exactly_two_to_minus_s(self):
        # For any fixed (message, tag) guess, exactly one b per a verifies.
        table = _mul_table()
        msg = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        h = _hash_all_points(table, _blocks_of(msg))
        guess = 0x5A
        hits = sum(1 for a in range(256) for b in range(256) if (h[a] ^ b) == guess)
        assert hits == 256  # 2^16 * 2^-8

    def test_python_and_table_paths_agree(self):
        table = _mul_table()
        rng = np.random.default_rng(4)
        msg = rng.integers(0, 2, 24).astype(np.uint8)
        for _ in range(20):
            key = MacKey.generate(rng, 8)
            h = _hash_all_points(table, _blocks_of(msg))
            assert mac_sign(key, msg) == (int(h[key.a]) ^ key.b)


@pytest.mark.parametrize("s", sorted(FIELD_POLYNOMIALS))
@given(bits=st.lists(st.integers(0, 255), max_size=700))
@settings(max_examples=60, deadline=None)
def test_blocks_match_reference(s, bits):
    from dbvsim.primitives import _to_blocks

    msg = np.array(bits, dtype=np.uint8)
    got = _to_blocks(msg, s)
    assert got == _reference_blocks(msg, s)
    assert all(type(b) is int for b in got)


GOLDEN = json.loads((Path(__file__).parent / "golden" / "mac_tags.json").read_text())


def _golden_message(s: int, seed: int, length: int) -> np.ndarray:
    # the message derivation of tests/golden/make_mac_tags.py
    return np.random.default_rng([s, seed, length]).integers(0, 2, length, dtype=np.uint8)


class TestMacRows:
    """A block's keys, window tables and tags against the scalar MAC, row by row."""

    @pytest.mark.parametrize("s", sorted(FIELD_POLYNOMIALS))
    def test_generate_draws_as_successive_keys(self, s):
        rng = np.random.default_rng(s)
        keys = MacKeys.generate(rng, 5, s)
        ref = np.random.default_rng(s)
        assert [keys[i] for i in range(5)] == [MacKey.generate(ref, s) for _ in range(5)]
        assert rng.random() == ref.random()  # and leave the generator in the same state

    @pytest.mark.parametrize("s", [8, 16, 32, 64])
    def test_window_tables_match_scalar(self, s):
        top = (1 << s) - 1
        points = [0, 1, 2, top, top ^ 1, 1 << (s - 1)]
        points += MacKeys.generate(np.random.default_rng(s), 30, s).a.tolist()
        keys = MacKeys(s, np.array(points, dtype=np.uint64), np.zeros(len(points), np.uint64))
        tables = keys.window_tables  # window-major: entry [v, j, i]
        assert tables.shape == (16, s // 4, len(points))
        for i, table in enumerate(tables.transpose(2, 1, 0).tolist()):
            assert table == [list(t) for t in keys[i].window_tables], (s, points[i])

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(FIELD_POLYNOMIALS)),
           st.integers(1, 16), st.integers(0, 4000), st.integers(0, 2**32 - 1))
    def test_tags_equal_scalar(self, s, rows, bits, seed):
        rng = np.random.default_rng(seed)
        keys = MacKeys.generate(rng, rows, s)
        messages = rng.integers(0, 2, (rows, bits), dtype=np.uint8)
        tags = mac_sign_rows(keys, messages)
        assert [int(t) for t in tags] == [mac_sign(keys[i], messages[i]) for i in range(rows)]

    @pytest.mark.parametrize("s", [8, 16, 32, 64])
    @pytest.mark.parametrize("rows, bits", [(2, 224), (3, 224), (35, 224), (120, 224),
                                            (256, 224), (3, 3398), (25, 3398), (30, 3398),
                                            (40, 3398), (78, 3398)])
    def test_tags_equal_scalar_at_block_shapes(self, s, rows, bits):
        # The blocks pi3 signs at k = 160 (224-bit messages, 2 to 256 rows),
        # the smallest block signed in arrays (3 rows), and pi2's at k = 3334
        # (3398 bits, 25 to 78 rows), which sign in lanes.
        rng = np.random.default_rng([s, rows, bits])
        keys = MacKeys.generate(rng, rows, s)
        messages = rng.integers(0, 2, (rows, bits), dtype=np.uint8)
        tags = mac_sign_rows(keys, messages)
        assert [int(t) for t in tags] == [mac_sign(keys[i], messages[i]) for i in range(rows)]

    @pytest.mark.parametrize("s", [8, 16, 32, 64])
    @pytest.mark.parametrize("rows", [3, 25, 78])
    def test_lanes_at_the_threshold_and_every_padding(self, s, rows):
        # L = L_min - 1 blocks sign serially, L_min and L_min + 1 in lanes;
        # the r lengths from 55 blocks, all in r lanes, take every residue of
        # L mod r, so every count of leading zero blocks.
        low = primitives._lane_min_blocks(rows)
        r = primitives._lane_count(55)
        tail = list(range(55, 55 + r))
        assert {primitives._lane_count(L) for L in tail} == {r}
        assert {L % r for L in tail} == set(range(r))
        rng = np.random.default_rng([s, rows])
        keys = MacKeys.generate(rng, rows, s)
        for L in [low - 1, low, low + 1] + tail:
            # The 64-bit length prefix and s L - 64 message bits fill L blocks.
            messages = rng.integers(0, 2, (rows, s * L - 64), dtype=np.uint8)
            tags = mac_sign_rows(keys, messages)
            assert [int(t) for t in tags] == [mac_sign(keys[i], messages[i])
                                              for i in range(rows)], L
            assert bool(keys._power_tables) == (L >= low), L  # lanes build a**r's tables

    @pytest.mark.parametrize("s", [8, 16, 32, 64])
    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    def test_power_tables_are_tables_of_a_to_the_r(self, s, r):
        top = (1 << s) - 1
        points = [0, 1, 2, top, top ^ 1, 1 << (s - 1)]
        points += MacKeys.generate(np.random.default_rng([s, r]), 20, s).a.tolist()
        keys = MacKeys(s, np.array(points, dtype=np.uint64), np.zeros(len(points), np.uint64))
        tables = keys.power_tables(r)
        assert keys.power_tables(r) is tables  # built once for a block's sign and check
        for i, a in enumerate(points):
            power = a
            for _ in range(r - 1):
                power = gf_mul(power, a, s)
            assert int(tables[1, 0, i]) == power, (s, r, a)  # entry [1, 0, i] is a**r * 1
            assert (tables[:, :, i].T.tolist()
                    == [list(t) for t in MacKey(s, power, 0).window_tables]), (s, r, a)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(FIELD_POLYNOMIALS)), st.integers(1, 40),
           st.sampled_from([224, 3398]),
           st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3397)), max_size=6),
           st.integers(0, 2**32 - 1))
    @example(64, 40, 3398, [(5, 3397)], 1)  # only the last block differs
    @example(64, 40, 3398, [(0, 0)], 2)  # every block from the first: in lanes
    @example(16, 3, 224, [], 3)  # byte-equal
    def test_tags_from_signed_tags_equal_a_fresh_sign(self, s, rows, bits, flips, seed):
        # The messages differ from the signed ones at the flipped bits.
        rng = np.random.default_rng(seed)
        keys = MacKeys.generate(rng, rows, s)
        signed = rng.integers(0, 2, (rows, bits), dtype=np.uint8)
        tags = mac_sign_rows(keys, signed)
        messages = signed.copy()
        for row, bit in flips:
            messages[row % rows, bit % bits] ^= 1
        got = mac_sign_rows_from(keys, messages, signed, tags)
        fresh = MacKeys(s, keys.a, keys.b)  # no tables shared with the helper's
        assert [int(t) for t in got] == [int(t) for t in mac_sign_rows(fresh, messages)]

    @pytest.mark.parametrize("rows", [1, 8])
    def test_repeated_key(self, rows):
        key = MacKey.generate(np.random.default_rng(3), 64)
        messages = encode_response_claim(np.ones((rows, 20), dtype=np.uint8), 5e4)
        tags = mac_sign_rows(MacKeys.repeat(key, rows), messages)
        assert tags.tolist() == [mac_sign(key, messages[0])] * rows


class TestGoldenTags:
    """Tags recorded by tests/golden/make_mac_tags.py must never change."""

    def test_fixture_covers_every_field_size(self):
        assert {c["field_bits"] for c in GOLDEN["mac"]} == set(FIELD_POLYNOMIALS)

    @pytest.mark.parametrize(
        "case", GOLDEN["mac"], ids=lambda c: f"s{c['field_bits']}-a{c['a_hex'][:6]}"
    )
    def test_mac_sign(self, case):
        s = case["field_bits"]
        key = MacKey(s, int(case["a_hex"], 16), int(case["b_hex"], 16))
        got = [
            format(mac_sign(key, _golden_message(s, case["message_seed"], n)), "x")
            for n in case["lengths"]
        ]
        assert got == case["tags_hex"]

    @pytest.mark.parametrize(
        "case", GOLDEN["mac"], ids=lambda c: f"s{c['field_bits']}-a{c['a_hex'][:6]}"
    )
    def test_mac_sign_rows(self, case):
        # The long messages signed as a block of three rows, in lanes where
        # they are long enough: 700 bits for s <= 32, 3398 bits for s <= 64.
        s = case["field_bits"]
        keys = MacKeys.repeat(MacKey(s, int(case["a_hex"], 16), int(case["b_hex"], 16)), 3)
        for n in (700, 3398):
            message = _golden_message(s, case["message_seed"], n)
            tags = mac_sign_rows(keys, np.tile(message, (3, 1)))
            want = case["tags_hex"][case["lengths"].index(n)]
            assert [format(int(t), "x") for t in tags] == [want] * 3, n

    @pytest.mark.parametrize(
        "case", GOLDEN["transcripts"], ids=lambda c: c["config"]["protocol"]
    )
    def test_transcript_tags(self, case):
        from dbvsim.channel import DEFAULT_CHANNEL
        from dbvsim.montecarlo import Scenario
        from dbvsim.protocols import (
            BrmParams,
            ProtocolConfig,
            run_pi2,
            run_pi3,
        )

        from dbvsim.protocols import SOURCE_STREAM_VERSION

        c = dict(case["config"])
        brm = c.pop("brm", None)
        # Tags depend on the drawn source and noise, and pi3 tags on the
        # sampled positions too, so they only compare within one stream.
        streams = [("source_stream", SOURCE_STREAM_VERSION)]
        if brm:
            streams.append(("sampler_stream", SAMPLER_STREAM_VERSION))
        for name, current in streams:
            recorded = GOLDEN.get(name, 1)
            assert recorded == current, (
                f"mac_tags.json was recorded with {name} {recorded}, the code "
                f"draws {current}: re-record it with tests/golden/make_mac_tags.py"
            )
        cfg = ProtocolConfig(**c, brm=BrmParams(**brm) if brm else None)
        run = run_pi2 if cfg.protocol == "pi2" else run_pi3
        d_c = case["d_claim"]
        got = [
            run(cfg, Scenario("honest", d_c, d_c), DEFAULT_CHANNEL,
                np.random.default_rng(seed), seed=seed).to_json_dict()["tag_hex"]
            for seed in case["seeds"]
        ]
        assert got == case["tags_hex"]


class TestEncodeResponseClaim:
    def test_claim_injective(self):
        resp = np.array([1, 0, 1], dtype=np.uint8)
        a = encode_response_claim(resp, 1234.5)
        b = encode_response_claim(resp, 1234.5000048)  # one fixed-point step up
        assert not np.array_equal(a, b)

    def test_layout(self):
        resp = np.array([1, 1, 0, 0], dtype=np.uint8)
        enc = encode_response_claim(resp, 3.0)
        assert enc.size == 4 + 64
        np.testing.assert_array_equal(enc[:4], resp)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_response_claim(np.array([1], dtype=np.uint8), 0.0)


# ---------------------------------------------------------------------------
# sampler


def _sample(key: SamplerKey, n: int, k: int) -> np.ndarray:
    return sample_indices(key, n, k).indices


def _eager_sample(key: SamplerKey, n: int, k: int) -> np.ndarray:
    """The first sampler: the key's generator permutes all n positions and the
    first k are kept.  The O(k) draw must equal it in distribution."""
    return np.random.default_rng(int.from_bytes(key.seed, "big")).permutation(n)[:k]


def _cell_counts(draws: np.ndarray, n: int, slot_groups: int, bins: int) -> np.ndarray:
    """Counts over (draw-order slot group, position bin) cells of a reps x k array."""
    reps, k = draws.shape
    slot = np.broadcast_to(np.arange(k) * slot_groups // k, draws.shape)
    cell = slot * bins + draws * bins // n
    return np.bincount(cell.ravel(), minlength=slot_groups * bins)


class TestSampler:
    def test_full_draw_is_permutation(self):
        key = SamplerKey.generate(np.random.default_rng(0), 128)
        idx = sample_indices(key, 16, 16)
        assert sorted(int(i) for i in idx.indices) == list(range(16))

    def test_distinctness_many_seeds(self):
        rng = np.random.default_rng(1)
        for _ in range(10**4):
            key = SamplerKey.generate(rng, 128)
            idx = sample_indices(key, 64, 32)
            assert np.unique(idx.indices).size == idx.k == 32

    def test_determinism(self):
        key = SamplerKey(seed=b"\x01" * 16)
        a = sample_indices(key, 1000, 100)
        b = sample_indices(key, 1000, 100)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_k_greater_than_n(self):
        key = SamplerKey(seed=b"\x02" * 16)
        with pytest.raises(ValueError):
            sample_indices(key, 4, 5)

    def test_subset_uniformity(self):
        # All 20 3-subsets of 6 equally likely (5 sigma per cell, fixed seed).
        from itertools import combinations

        rng = np.random.default_rng(42)
        counts = {frozenset(c): 0 for c in combinations(range(6), 3)}
        reps = 10**5
        for _ in range(reps):
            key = SamplerKey.generate(rng, 64)
            counts[sample_indices(key, 6, 3).as_set()] += 1
        exp = reps / 20
        sd = math.sqrt(reps * (1 / 20) * (19 / 20))
        for c, v in counts.items():
            assert abs(v - exp) < 5 * sd, (c, v)

    def test_hoeffding_guarantee_monte_carlo(self):
        # Pr(sample mean < mu - theta) <= exp(-2*k*theta^2) for a [0,1] f.
        rng = np.random.default_rng(7)
        n, k, theta = 2000, 200, 0.05
        f = rng.uniform(0, 1, n)
        mu = f.mean()
        gamma = sampler_guarantee(k, theta)
        reps = 20000
        bad = 0
        for _ in range(reps):
            key = SamplerKey.generate(rng, 64)
            idx = sample_indices(key, n, k)
            bad += f[idx.indices].mean() < mu - theta
        assert bad / reps <= gamma + 3 * math.sqrt(gamma * (1 - gamma) / reps)

    def test_guarantee_values(self):
        assert sampler_guarantee(1000, 0.05) == pytest.approx(math.exp(-5), rel=1e-12)
        assert sampler_guarantee(1000, 0.05) == pytest.approx(6.74e-3, rel=1e-3)
        assert sampler_guarantee(2000, 0.05) == pytest.approx(
            sampler_guarantee(1000, 0.05) ** 2, rel=1e-12
        )
        assert sampler_guarantee(100, 1e-12) == pytest.approx(1.0)

    def test_guarantee_requires_positive_theta(self):
        with pytest.raises(ValueError):
            sampler_guarantee(10, 0.0)

    #: chi-square p-values below this fail; the seeds are fixed, so a pass is
    #: a fixed outcome, not a flaky one.
    P_FLOOR = 1e-4

    def test_ordered_triples_match_eager(self):
        # All 120 ordered 3-tuples of 6 positions are equally likely, for the
        # sampler and for the eager permutation, with exact 1/120 cells.
        from itertools import permutations

        cell = {t: i for i, t in enumerate(permutations(range(6), 3))}
        reps = 60_000
        counts = np.zeros((2, len(cell)), dtype=np.int64)
        for row, (seed, draw) in enumerate(((31, _sample), (32, _eager_sample))):
            rng = np.random.default_rng(seed)
            for _ in range(reps):
                idx = draw(SamplerKey.generate(rng, 64), 6, 3)
                counts[row, cell[tuple(int(i) for i in idx)]] += 1
        for row in counts:
            assert stats.chisquare(row).pvalue > self.P_FLOOR
        assert stats.chi2_contingency(counts).pvalue > self.P_FLOOR

    @pytest.mark.parametrize(
        "n,k,reps",
        [
            (20_000, 10, 4000),  # n > 10**4, k <= n/50
            (10_050, 250, 400),  # n > 10**4, k > n/50
            (5_000, 400, 400),  # n <= 10**4
        ],
    )
    def test_position_marginals_match_eager(self, n, k, reps):
        # Every draw-order slot is uniform over the positions, and the slot x
        # position-bin table agrees with the eager permutation's.
        groups, bins = min(k, 10), 50
        tables = []
        for seed, draw in ((41, _sample), (42, _eager_sample)):
            rng = np.random.default_rng(seed)
            draws = np.empty((reps, k), dtype=np.int64)
            for i in range(reps):
                draws[i] = draw(SamplerKey.generate(rng, 128), n, k)
            counts = _cell_counts(draws, n, groups, bins)
            # bins of n // bins or n // bins + 1 positions: exact expected counts
            edges = -(-np.arange(bins + 1) * n // bins)
            share = np.diff(edges) / n
            expected = np.tile(share, groups) * reps * k / groups
            assert stats.chisquare(counts, expected).pvalue > self.P_FLOOR
            tables.append(counts)
        assert stats.chi2_contingency(np.array(tables)).pvalue > self.P_FLOOR

    def test_memory_grows_with_k_not_n(self):
        import tracemalloc

        key = SamplerKey(seed=b"\x03" * 16)
        tracemalloc.start()
        try:
            idx = sample_indices(key, 2 * 10**9, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert idx.k == 200 and np.unique(idx.indices).size == 200
        assert 0 <= idx.indices.min() and idx.indices.max() < 2 * 10**9

    def test_index_set_validation(self):
        with pytest.raises(ValueError):
            IndexSet(np.array([1, 1, 2]), 5)
        with pytest.raises(ValueError):
            IndexSet(np.array([0, 5]), 5)


# ---------------------------------------------------------------------------
# sampler stream 3: the array form against an exact reference and stream 2

_M64 = (1 << 64) - 1


def _fmix64(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _reference_words(hi: int, lo: int):
    """Key (hi, lo)'s words, word 0 first: SplitMix64's outputs from the
    seed fmix64(fmix64(hi) ^ lo), word j = fmix64(seed + (j + 1) gamma)."""
    seed = _fmix64(_fmix64(hi) ^ lo)
    j = 0
    while True:
        j += 1
        yield _fmix64((seed + j * 0x9E3779B97F4A7C15) & _M64)


def _reference_sample(hi: int, lo: int, n: int, k: int) -> tuple[list[int], int]:
    """The stream-3 map in exact integers, one word at a time: the positions
    in draw order, and how many words they took.

    Where n <= 4k, position j ranks by word j with its low b bits replaced
    by j (b the bit length of n - 1), and the k lowest ranks are taken in
    rank order.  Otherwise each word gives 32-bit values (low half, then
    high half) for n < 2**32, or one 64-bit value; a value below the
    largest multiple of n in its range is accepted as value mod n; the first
    k distinct accepted values are taken, reading as many words as needed.
    """
    words = _reference_words(hi, lo)
    if k == 0:
        return [], 0
    if n <= 4 * k:
        low = (n - 1).bit_length()
        ranks = sorted(next(words) >> low << low | j for j in range(n))
        return [r & ((1 << low) - 1) for r in ranks[:k]], n
    bits = 32 if n < 1 << 32 else 64
    limit = (1 << bits) // n * n
    out, seen, used = [], set(), 0
    for word in words:
        used += 1
        for value in ((word & 0xFFFFFFFF, word >> 32) if bits == 32 else (word,)):
            if value < limit and value % n not in seen:
                seen.add(value % n)
                out.append(value % n)
                if len(out) == k:
                    return out, used


def _choice_sample(key: SamplerKey, n: int, k: int) -> np.ndarray:
    """The stream-2 map: the key seeds numpy's generator, whose
    ``choice(n, k, replace=False)`` draws the positions."""
    return np.random.default_rng(int.from_bytes(key.seed, "big")).choice(n, size=k, replace=False)


def _check_rows(keys: list[SamplerKey], n: int, k: int) -> None:
    """The rows path equals the one-row path and the reference, row by row."""
    got = sample_indices_rows(np.array([key.words for key in keys], dtype=np.uint64), n, k)
    assert got.shape == (len(keys), k) and got.dtype == np.int64
    for key, row in zip(keys, got):
        want, _ = _reference_sample(*key.words, n, k)
        assert row.tolist() == want
        assert sample_indices(key, n, k).indices.tolist() == want


_DENSE_SHAPES = st.integers(1, 600).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-(-n // 4), n)))
_SPARSE_SHAPES = st.integers(1, 200).flatmap(
    lambda k: st.tuples(st.integers(4 * k + 1, 2**40), st.just(k)))


class TestSamplerRows:
    @settings(max_examples=80, deadline=None)
    @example(rows=67, shape=(534, 160), key_bytes=16, seed=0)
    @example(rows=70, shape=(1_030_000, 103), key_bytes=16, seed=1)
    @example(rows=70, shape=(10_000, 1000), key_bytes=8, seed=2)
    @given(rows=st.integers(1, 70), shape=st.one_of(_DENSE_SHAPES, _SPARSE_SHAPES),
           key_bytes=st.sampled_from([8, 16]), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_one_row_and_reference(self, rows, shape, key_bytes, seed):
        rng = np.random.default_rng(seed)
        _check_rows([SamplerKey.generate(rng, 8 * key_bytes) for _ in range(rows)], *shape)

    @pytest.mark.parametrize("n,k", [
        (5, 0), (10**6, 0), (1, 0), (1, 1), (7, 7), (600, 600),
        (2**31 + 1, 120),  # about half of all 32-bit values rejected
        (3 * 2**40, 60),  # 64-bit values
        (2**63 - 1, 30),  # the longest source
    ])
    def test_edge_shapes(self, n, k):
        rng = np.random.default_rng(n % 1000 + k)
        keys = [SamplerKey.generate(rng) for _ in range(5)]
        _check_rows(keys, n, k)
        if k == n:
            for key in keys:
                assert sorted(sample_indices(key, n, k).indices.tolist()) == list(range(n))

    @pytest.mark.parametrize("n,k", [
        (2**31 + 1, 4),  # 32-bit values, half rejected
        (2**64 // 3 + 1, 2),  # 64-bit values, a third rejected
    ])
    def test_top_up(self, n, k):
        # Keys, found by search, whose first k distinct accepted draws need
        # more words than a row draws first; in a block with keys that need
        # none, and alone.
        first, _ = primitives._first_words(n, k)
        rng = np.random.default_rng(2024)
        short = []
        while len(short) < 3:
            key = SamplerKey.generate(rng)
            if _reference_sample(*key.words, n, k)[1] > first:
                short.append(key)
        plain = [SamplerKey.generate(rng) for _ in range(4)]
        _check_rows(plain[:2] + short[:2] + plain[2:] + short[2:], n, k)
        _check_rows(short[:1], n, k)

    def test_key_rows_are_the_keys_words(self):
        raw = np.random.default_rng(3).bytes(16 * 6)
        np.testing.assert_array_equal(
            sampler_key_rows(raw),
            np.array([SamplerKey(raw[i: i + 16]).words for i in range(0, len(raw), 16)],
                     dtype=np.uint64))

    def test_every_key_bit_counts(self):
        # Flipping any one bit of a 16- or 8-byte key changes the positions.
        for size in (8, 16):
            seed = bytes(range(1, size + 1))
            base = sample_indices(SamplerKey(seed), 534, 160).indices
            for bit in range(8 * size):
                flipped = (int.from_bytes(seed, "big") ^ (1 << bit)).to_bytes(size, "big")
                assert not np.array_equal(
                    sample_indices(SamplerKey(flipped), 534, 160).indices, base), (size, bit)

    def test_key_length_is_validated(self):
        with pytest.raises(ValueError):
            SamplerKey(bytes(17))
        with pytest.raises(ValueError):
            SamplerKey.generate(np.random.default_rng(0), 136)
        with pytest.raises(ValueError):
            sample_indices_rows(np.zeros((2, 2), dtype=np.uint64), 4, 5)

    @pytest.mark.parametrize("n,k", [(534, 160), (10_050, 250), (2**31 + 1, 50)])
    def test_random_rows_are_distinct_and_in_range(self, n, k):
        picked = random_index_rows(np.random.default_rng(5), 40, n, k)
        assert picked.shape == (40, k)
        assert picked.min() >= 0 and picked.max() < n
        assert all(np.unique(row).size == k for row in picked)


class TestSamplerAgainstChoice:
    """Stream 3 against stream 2 (numpy's ``choice``) in distribution, by
    chi-square tests with fixed seeds: a pass is a fixed outcome."""

    P_FLOOR = 1e-4

    def test_ordered_triples(self):
        # All 120 ordered 3-tuples of 6 positions are equally likely: the keyed
        # map (8-byte keys, as criterion 10 draws them), the intruder's
        # random_index_rows and stream 2.
        from itertools import permutations

        cell = {t: i for i, t in enumerate(permutations(range(6), 3))}
        reps = 60_000
        rng = np.random.default_rng(51)
        keys = [SamplerKey.generate(rng, 64) for _ in range(reps)]
        draws = [
            sample_indices_rows(np.array([key.words for key in keys], dtype=np.uint64), 6, 3),
            random_index_rows(np.random.default_rng(52), reps, 6, 3),
            np.array([_choice_sample(SamplerKey.generate(rng, 64), 6, 3) for _ in range(reps)]),
        ]
        counts = np.zeros((len(draws), len(cell)), dtype=np.int64)
        for row, drawn in zip(counts, draws):
            np.add.at(row, [cell[tuple(t)] for t in drawn.tolist()], 1)
            assert stats.chisquare(row).pvalue > self.P_FLOOR
        assert stats.chi2_contingency(counts).pvalue > self.P_FLOOR

    @pytest.mark.parametrize("n,k,reps", [
        (534, 160, 2000),  # ranked words
        (10_050, 250, 600),  # mapped words, about three repeats a row
        (20_000, 10, 6000),  # mapped words, repeats rare
        (2**31 + 1, 50, 1500),  # half the values rejected
    ])
    def test_slot_position_marginals(self, n, k, reps):
        # Every draw-order slot is uniform over the positions, and the slot x
        # position-bin table agrees with stream 2's.
        groups, bins = min(k, 10), 50
        rng = np.random.default_rng(61)
        keyed = sample_indices_rows(sampler_key_rows(rng.bytes(16 * reps)), n, k)
        choice = np.array([_choice_sample(SamplerKey.generate(rng), n, k) for _ in range(reps)])
        edges = -(-np.arange(bins + 1) * n // bins)
        expected = np.tile(np.diff(edges) / n, groups) * reps * k / groups
        tables = [_cell_counts(draws, n, groups, bins) for draws in (keyed, choice)]
        for table in tables:
            assert stats.chisquare(table, expected).pvalue > self.P_FLOOR
        assert stats.chi2_contingency(np.array(tables)).pvalue > self.P_FLOOR
