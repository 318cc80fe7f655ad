"""Traffic generators: load calibration, destinations, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.router import traffic as traffic_module
from repro.router.packet import Packet
from repro.router.traffic import (
    ArrivalBatch,
    BernoulliUniformTraffic,
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TraceEntry,
    TraceTraffic,
    TrafficGenerator,
    TrimodalPacketTraffic,
)


def measure_load(traffic, slots=3000, seed=5):
    rng = np.random.default_rng(seed)
    total = 0
    for slot in range(slots):
        total += len(traffic.arrivals(slot, rng))
    return total / (slots * traffic.ports)


class TestBernoulli:
    def test_load_calibrated(self):
        traffic = BernoulliUniformTraffic(8, load=0.3)
        assert measure_load(traffic) == pytest.approx(0.3, abs=0.02)

    def test_zero_load_no_arrivals(self):
        traffic = BernoulliUniformTraffic(8, load=0.0)
        assert measure_load(traffic, slots=100) == 0.0

    def test_destinations_cover_all_ports(self):
        traffic = BernoulliUniformTraffic(8, load=1.0)
        rng = np.random.default_rng(1)
        dests = set()
        for slot in range(200):
            dests.update(p.dest_port for p in traffic.arrivals(slot, rng))
        assert dests == set(range(8))

    def test_no_self_option(self):
        traffic = BernoulliUniformTraffic(4, load=1.0, allow_self=False)
        rng = np.random.default_rng(2)
        for slot in range(100):
            for p in traffic.arrivals(slot, rng):
                assert p.dest_port != p.src_port

    def test_packet_ids_unique(self):
        traffic = BernoulliUniformTraffic(4, load=1.0)
        rng = np.random.default_rng(3)
        ids = []
        for slot in range(50):
            ids.extend(p.packet_id for p in traffic.arrivals(slot, rng))
        assert len(ids) == len(set(ids))

    def test_determinism_by_rng(self):
        a = BernoulliUniformTraffic(4, load=0.5)
        b = BernoulliUniformTraffic(4, load=0.5)
        pa = [len(a.arrivals(s, np.random.default_rng(9))) for s in range(10)]
        pb = [len(b.arrivals(s, np.random.default_rng(9))) for s in range(10)]
        assert pa == pb

    def test_bad_load_rejected(self):
        with pytest.raises(ConfigurationError):
            BernoulliUniformTraffic(4, load=1.5)


class TestHotspot:
    def test_hotspot_attracts_fraction(self):
        traffic = HotspotTraffic(8, load=1.0, hotspot_port=3, hotspot_fraction=0.7)
        rng = np.random.default_rng(4)
        hot = total = 0
        for slot in range(500):
            for p in traffic.arrivals(slot, rng):
                total += 1
                hot += p.dest_port == 3
        # 0.7 + 0.3/8 expected.
        assert hot / total == pytest.approx(0.7 + 0.3 / 8, abs=0.03)

    def test_bad_hotspot_port(self):
        with pytest.raises(ConfigurationError):
            HotspotTraffic(8, load=0.5, hotspot_port=8)


class TestPermutation:
    def test_fixed_destinations(self):
        perm = [2, 3, 0, 1]
        traffic = PermutationTraffic(4, load=1.0, permutation=perm)
        rng = np.random.default_rng(5)
        for p in traffic.arrivals(0, rng):
            assert p.dest_port == perm[p.src_port]

    def test_default_is_shift(self):
        traffic = PermutationTraffic(4, load=1.0)
        assert traffic.permutation == [1, 2, 3, 0]

    def test_non_bijection_rejected(self):
        with pytest.raises(ConfigurationError):
            PermutationTraffic(4, load=0.5, permutation=[0, 0, 1, 2])


class TestBursty:
    def test_long_run_load(self):
        traffic = BurstyTraffic(8, load=0.3, burst_len=6.0)
        assert measure_load(traffic, slots=8000) == pytest.approx(0.3, abs=0.04)

    def test_burstiness_creates_runs(self):
        """Consecutive-arrival runs must be much longer than Bernoulli."""
        traffic = BurstyTraffic(2, load=0.3, burst_len=10.0)
        rng = np.random.default_rng(6)
        arrivals = []
        for slot in range(4000):
            ports = {p.src_port for p in traffic.arrivals(slot, rng)}
            arrivals.append(0 in ports)
        runs, current = [], 0
        for a in arrivals:
            if a:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        mean_run = sum(runs) / len(runs)
        assert mean_run > 3.0  # Bernoulli at 0.3 would give ~1.4

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyTraffic(4, load=0.0)
        with pytest.raises(ConfigurationError):
            BurstyTraffic(4, load=0.3, burst_len=0.5)


class TestTrimodal:
    def test_cell_load_calibrated(self):
        traffic = TrimodalPacketTraffic(8, load=0.4)
        rng = np.random.default_rng(7)
        cells = 0
        slots = 4000
        for slot in range(slots):
            for p in traffic.arrivals(slot, rng):
                cells += -(-p.size_bits // 480)
        assert cells / (slots * 8) == pytest.approx(0.4, abs=0.05)

    def test_sizes_from_mix(self):
        traffic = TrimodalPacketTraffic(8, load=0.5)
        rng = np.random.default_rng(8)
        sizes = set()
        for slot in range(300):
            sizes.update(p.size_bits for p in traffic.arrivals(slot, rng))
        assert sizes <= {40 * 8, 576 * 8, 1500 * 8}
        assert len(sizes) == 3

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            TrimodalPacketTraffic(8, load=0.3, mix=((40, 0.5), (1500, 0.4)))


class TestTrace:
    def test_replays_exactly(self):
        entries = [
            TraceEntry(slot=0, src=1, dest=2, size_bits=480),
            TraceEntry(slot=2, src=0, dest=3, size_bits=960),
        ]
        traffic = TraceTraffic(4, entries)
        rng = np.random.default_rng(9)
        assert [p.src_port for p in traffic.arrivals(0, rng)] == [1]
        assert traffic.arrivals(1, rng) == []
        pkts = traffic.arrivals(2, rng)
        assert pkts[0].dest_port == 3 and pkts[0].size_bits == 960

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceTraffic(4, [TraceEntry(0, 5, 0, 480)])


class TestPerPortLoadVectors:
    def test_zero_load_port_never_sends(self):
        gen = BernoulliUniformTraffic(4, [0.0, 1.0, 0.5, 0.0])
        rng = np.random.default_rng(11)
        srcs = set()
        for slot in range(200):
            srcs.update(gen.arrivals_batch(slot, rng).srcs.tolist())
        assert 0 not in srcs and 3 not in srcs and 1 in srcs
        assert gen.load == pytest.approx(0.375)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError, match="4 entries"):
            BernoulliUniformTraffic(4, [0.5, 0.5])

    def test_bursty_vector_matches_scalar_bit_for_bit(self):
        # The scalar fast path and a uniform per-port vector must draw
        # and emit identically (the PR 3 scalar contract is preserved).
        scalar = BurstyTraffic(4, 0.5)
        vector = BurstyTraffic(4, [0.5, 0.5, 0.5, 0.5])
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        for slot in range(100):
            a = scalar.arrivals_batch(slot, rng_a)
            b = vector.arrivals_batch(slot, rng_b)
            assert a.srcs.tolist() == b.srcs.tolist()
            assert a.dests.tolist() == b.dests.tolist()
            assert a.payload_words.tolist() == b.payload_words.tolist()

    def test_bursty_per_port_calibration(self):
        # A zero-load port never turns on; loaded ports approach their
        # own stationary ON probability.
        gen = BurstyTraffic(4, [0.0, 0.8, 0.3, 0.0], burst_len=4.0)
        rng = np.random.default_rng(5)
        counts = np.zeros(4)
        slots = 6000
        for slot in range(slots):
            batch = gen.arrivals_batch(slot, rng)
            for src in batch.srcs.tolist():
                counts[src] += 1
        rates = counts / slots
        assert rates[0] == 0.0 and rates[3] == 0.0
        assert rates[1] == pytest.approx(0.8, abs=0.06)
        assert rates[2] == pytest.approx(0.3, abs=0.06)

    def test_bursty_saturated_port_rejected(self):
        with pytest.raises(ConfigurationError, match="< 1"):
            BurstyTraffic(4, [0.5, 1.0, 0.5, 0.5])


#: The fixed-size generators, built from ``(ports, packet_bits, bus_width)``.
FIXED_SIZE = {
    "bernoulli": lambda ports, bits, width: BernoulliUniformTraffic(
        ports, 0.7, packet_bits=bits, bus_width=width),
    "hotspot": lambda ports, bits, width: HotspotTraffic(
        ports, 0.7, packet_bits=bits, bus_width=width),
    "permutation": lambda ports, bits, width: PermutationTraffic(
        ports, 0.7, packet_bits=bits, bus_width=width),
    "bursty": lambda ports, bits, width: BurstyTraffic(
        ports, 0.7, burst_len=2.0, packet_bits=bits, bus_width=width),
}


class TestPacketBitsValidation:
    """Malformed sizes fail at construction, even when no packet would
    ever be drawn."""

    @pytest.mark.parametrize("kind", sorted(FIXED_SIZE))
    @pytest.mark.parametrize("bad", ["480", 480.7, 480.0, -1, True, None])
    def test_fixed_size_generators_reject(self, kind, bad):
        with pytest.raises(ConfigurationError, match="packet_bits"):
            FIXED_SIZE[kind](4, bad, 32)

    @pytest.mark.parametrize("bad", ["480", 480.7, 0, -1, True, None])
    def test_trimodal_rejects_cell_payload_bits(self, bad):
        with pytest.raises(ConfigurationError, match="cell_payload_bits"):
            TrimodalPacketTraffic(4, load=0.3, cell_payload_bits=bad)

    def test_rejected_at_zero_load(self):
        with pytest.raises(ConfigurationError):
            PermutationTraffic(4, load=0.0, packet_bits=-5)

    def test_numpy_integers_accepted(self):
        gen = BernoulliUniformTraffic(4, 0.5, packet_bits=np.int64(100))
        assert gen.packet_bits == 100 and type(gen.packet_bits) is int


def _assert_same_batch(a: ArrivalBatch, b: ArrivalBatch) -> None:
    for field in dataclasses.fields(ArrivalBatch):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, field.name
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


class TestFixedSizeLayout:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(FIXED_SIZE)),
        bus_width=st.sampled_from([8, 16, 32, 64]),
        ports=st.integers(min_value=2, max_value=12),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_general_payload_path(
        self, kind, bus_width, ports, data, seed
    ):
        """The precomputed layout builds, field for field, the batch the
        general draw_payload_batch path builds, from the same draws."""
        cell_payload_bits = 15 * bus_width  # default 16-word cells
        bits = data.draw(
            st.integers(min_value=0, max_value=3 * cell_payload_bits)
        )
        fixed = FIXED_SIZE[kind](ports, bits, bus_width)
        general = FIXED_SIZE[kind](ports, bits, bus_width)

        def general_batch(slot, rng, srcs, dests):
            sizes = np.full(srcs.size, bits, dtype=np.int64)
            return general._batch(slot, rng, srcs, dests, sizes)

        general._fixed_size_batch = general_batch
        rng_fixed = np.random.default_rng(seed)
        rng_general = np.random.default_rng(seed)
        for slot in range(6):
            _assert_same_batch(
                fixed.arrivals_batch(slot, rng_fixed),
                general.arrivals_batch(slot, rng_general),
            )
        assert rng_fixed.bit_generator.state == rng_general.bit_generator.state

    @pytest.mark.parametrize("kind", sorted(FIXED_SIZE))
    def test_shared_tables_are_read_only(self, kind):
        gen = FIXED_SIZE[kind](8, 100, 32)
        rng = np.random.default_rng(4)
        batch = next(b for b in (gen.arrivals_batch(s, rng) for s in range(50))
                     if len(b))
        assert batch.words_per_packet == 4
        with pytest.raises(ValueError):
            batch.size_bits[0] = 1
        with pytest.raises(ValueError):
            batch.word_offsets[-1] = 0
        batch.payload_words[0] = 1  # fresh per slot, so writable

    def test_mixed_sizes_have_no_common_width(self):
        entries = [TraceEntry(0, 0, 1, 480), TraceEntry(0, 1, 2, 960),
                   TraceEntry(1, 2, 3, 40), TraceEntry(1, 3, 0, 40)]
        gen = TraceTraffic(4, entries)
        rng = np.random.default_rng(2)
        assert gen.arrivals_batch(0, rng).words_per_packet is None
        assert gen.arrivals_batch(1, rng).words_per_packet == 2
        assert gen.arrivals_batch(2, rng).words_per_packet is None


class _PacketListTraffic(TrafficGenerator):
    """A generator with only the legacy ``arrivals()``: every third slot
    is empty, and each packet says it was created a slot early."""

    def arrivals(self, slot, rng):
        if slot % 3 == 0:
            return []
        return [
            Packet.random(rng, packet_id=slot, src_port=slot % self.ports,
                          dest_port=0, size_bits=40, bus_width=32,
                          created_slot=slot - 1)
        ]


#: Every traffic kind, built from a port count.
KINDS = {
    "bernoulli": lambda ports: BernoulliUniformTraffic(
        ports, 0.6, packet_bits=100),
    "hotspot": lambda ports: HotspotTraffic(ports, 0.6, packet_bits=100),
    "permutation": lambda ports: PermutationTraffic(
        ports, 0.6, packet_bits=100),
    "bursty": lambda ports: BurstyTraffic(
        ports, 0.6, burst_len=3.0, packet_bits=100),
    "trimodal": lambda ports: TrimodalPacketTraffic(ports, 0.6),
    "trace": lambda ports: TraceTraffic(ports, [
        TraceEntry(s, s % ports, 3 * s % ports, 40 * (1 + s % 40))
        for s in range(0, 300, 2)
    ]),
    "packet_list": lambda ports: _PacketListTraffic(ports, 32),
}

#: Derandomized like the engine fuzz; the example count comes from the
#: active hypothesis profile (1,000 under ``engine-fuzz``).
DERANDOMIZED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _v1_state(rng: np.random.Generator) -> dict:
    """The bit generator's state, less the buffered half-word when none
    is buffered (numpy never reads it then)."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return state


def _assert_block(block, offsets, batches, start):
    """``block`` holds the packets of ``batches``, the consecutive slots
    from ``start``, in order, ``offsets`` delimiting each slot's."""
    assert block.created_slot == start
    assert len(offsets) == len(batches) + 1
    assert offsets[0] == 0 and offsets[-1] == len(block)
    assert block.word_offsets[0] == 0
    assert block.word_offsets[-1] == block.payload_words.size
    for k, batch in enumerate(batches):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        assert hi - lo == len(batch)
        for name in ("srcs", "dests", "size_bits", "packet_ids"):
            got, want = getattr(block, name)[lo:hi], getattr(batch, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert block.created_slots[lo:hi].tolist() == [
            batch.packet_created_slot(i) for i in range(len(batch))
        ]
        words = block.word_offsets[lo : hi + 1]
        assert np.array_equal(np.diff(words), np.diff(batch.word_offsets))
        payload = block.payload_words[words[0] : words[-1]]
        assert payload.dtype == np.uint64
        assert np.array_equal(payload, batch.payload_words)
    widths = set(np.diff(block.word_offsets).tolist())
    assert block.words_per_packet == (widths.pop() if len(widths) == 1 else None)


def _slot_batches(generator, start, count, rng):
    return [generator.arrivals_batch(start + k, rng) for k in range(count)]


class TestArrivalBlock:
    """A block of slots is the concatenation of the slots' batches and
    leaves the generator where the per-slot draws leave it."""

    @DERANDOMIZED
    @given(
        kind=st.sampled_from(sorted(KINDS)),
        ports=st.integers(2, 12),
        before=st.integers(0, 70),
        count=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_slot_batches(self, kind, ports, before, count, seed):
        gen, twin = (KINDS[kind](ports) for _ in "ab")
        rng, rng_twin = (np.random.default_rng(seed) for _ in "ab")
        _slot_batches(gen, 0, before, rng)
        _slot_batches(twin, 0, before, rng_twin)
        block, offsets = gen.arrival_block(before, count, rng)
        _assert_block(
            block, offsets, _slot_batches(twin, before, count, rng_twin), before
        )
        assert _v1_state(rng) == _v1_state(rng_twin)

    @DERANDOMIZED
    @given(
        ports=st.integers(2, 64),
        load=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        packet_bits=st.integers(0, 3 * 480),
        count=st.integers(1, 200),
        carry=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # The half-word left buffered after a block is the high half of the
    # last word used for 32-bit draws, not of the last word drawn: here
    # the block's last slot has no arrivals, so its doubles come last.
    @example(ports=3, load=0.4, packet_bits=33, count=2, carry=False, seed=1)
    def test_replay_matches_v1(
        self, ports, load, packet_bits, count, carry, seed
    ):
        gen, twin = (
            BernoulliUniformTraffic(ports, load, packet_bits=packet_bits)
            for _ in "ab"
        )
        rng, rng_twin = (np.random.default_rng(seed) for _ in "ab")
        if carry:  # one 32-bit draw leaves the high half buffered
            for r in (rng, rng_twin):
                r.integers(0, 2**32, dtype=np.uint64)
        block, offsets = gen.arrival_block(0, count, rng)
        _assert_block(block, offsets, _slot_batches(twin, 0, count, rng_twin), 0)
        assert _v1_state(rng) == _v1_state(rng_twin)

    def test_replay_makes_no_slot_draws(self, monkeypatch):
        gen = BernoulliUniformTraffic(32, 0.5)

        def slot_draw(slot, rng):
            raise AssertionError("the replay drew a slot batch")

        monkeypatch.setattr(gen, "arrivals_batch", slot_draw)
        block, _ = gen.arrival_block(0, 64, np.random.default_rng(1))
        assert len(block) > 0

    def test_numpy_rejection_is_replayed_by_slot_draws(self):
        # A buffered zero half is the next destination draw, and Lemire's
        # method rejects 0 for any port count that is not a power of two.
        gen, twin = (BernoulliUniformTraffic(5, 1.0, packet_bits=40)
                     for _ in "ab")
        rng, rng_twin = (np.random.default_rng(3) for _ in "ab")
        for r in (rng, rng_twin):
            r.bit_generator.state = dict(
                r.bit_generator.state, has_uint32=1, uinteger=0
            )
        block, offsets = gen.arrival_block(0, 10, rng)
        _assert_block(block, offsets, _slot_batches(twin, 0, 10, rng_twin), 0)
        assert _v1_state(rng) == _v1_state(rng_twin)

    @pytest.mark.parametrize("ports", [5, 32])
    def test_forced_rejection_falls_back(self, monkeypatch, ports):
        monkeypatch.setattr(
            traffic_module, "_lemire_threshold", lambda ports: 2**32 - 1
        )
        gen, twin = (BernoulliUniformTraffic(ports, 0.5, packet_bits=33)
                     for _ in "ab")
        rng, rng_twin = (np.random.default_rng(8) for _ in "ab")
        calls = []
        slot_draw = gen.arrivals_batch
        monkeypatch.setattr(
            gen, "arrivals_batch",
            lambda slot, rng: calls.append(slot) or slot_draw(slot, rng),
        )
        block, offsets = gen.arrival_block(7, 40, rng)
        assert calls == list(range(7, 47))
        _assert_block(block, offsets, _slot_batches(twin, 7, 40, rng_twin), 7)
        assert _v1_state(rng) == _v1_state(rng_twin)

    def test_failed_probe_falls_back(self, monkeypatch):
        monkeypatch.setattr(traffic_module, "_replay_exact", False)
        gen, twin = (BernoulliUniformTraffic(6, 0.5) for _ in "ab")
        monkeypatch.setattr(gen, "_replay", None)  # never called
        rng, rng_twin = (np.random.default_rng(9) for _ in "ab")
        block, offsets = gen.arrival_block(0, 30, rng)
        _assert_block(block, offsets, _slot_batches(twin, 0, 30, rng_twin), 0)
        assert rng.bit_generator.state == rng_twin.bit_generator.state

    def test_probe_passes_on_this_numpy(self):
        assert traffic_module._replay_is_exact()
