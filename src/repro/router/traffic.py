"""Synthetic traffic generators (paper Section 5.2 substitute).

The paper feeds its platform "a TCP/IP packet traffic flow ... the
destinations of the TCP/IP packets are random" with throughput adjusted
"by controlling the packet generation intervals".  The generators here
reproduce that (Bernoulli arrivals, uniform random destinations, random
payload bits) and add the controlled variants used by the ablation
benches: hotspot, permutation, bursty on/off, a trimodal TCP/IP packet
size mix, and replayable traces.

All generators are driven by a seeded :class:`numpy.random.Generator`
owned by the engine, so simulations are bit-for-bit reproducible.

Generation is *batched*: the RNG-consuming primitive is
:meth:`TrafficGenerator.arrivals_batch`, which returns one
:class:`ArrivalBatch` — parallel source/destination/size arrays plus a
single concatenated payload-word array — per slot.  The legacy
:meth:`TrafficGenerator.arrivals` (a list of :class:`Packet` objects),
which the reference engine draws, is a thin wrapper that materialises
the batch; the vectorized engine draws :meth:`TrafficGenerator.
arrival_block`, the same packets of several slots as one batch.  Both
consume exactly the same random stream and see the same workload.

Generators whose packets all have one size (Bernoulli, hotspot,
permutation, bursty) work out the payload layout once, at construction
(words per packet, tail-word mask, read-only size and offset tables),
so a slot lays out its one payload draw in a fixed handful of numpy
calls.  Trimodal and trace traffic use :func:`draw_payload_batch`,
which works the layout out per call.

RNG-consumption contract
------------------------
Generators draw from the engine's seeded RNG one slot at a time, in a
fixed order: RNG stream v1 (:data:`RNG_STREAM_V1`), the contract of the
original engines, kept bit-stable because any change to the draw order
silently changes every seeded result.  For Bernoulli-uniform traffic,
:meth:`~BernoulliUniformTraffic.arrival_block` *replays* those draws
from one ``random_raw`` draw of the PCG64 words they would consume,
then advances the generator past them.  The replay is an execution
strategy that reproduces v1 exactly, not a new stream.  It runs only
for exactly :class:`BernoulliUniformTraffic` with one load on every
port, ``allow_self``, a 32-bit bus and a PCG64 bit generator, once a
first-use probe against real ``Generator`` calls has passed.  A block
whose destination draw numpy would reject (Lemire's method, ports not a
power of two) is redrawn by the per-slot calls, and so is everything if
the probe fails.

``load`` may be a per-port vector (one arrival probability per ingress
port) anywhere a generator accepts a scalar.  :data:`BurstyTraffic`
calibrates its on/off dwell parameters *per port* for vector loads
(every port keeps the shared mean ON dwell ``burst_len`` while its
stationary ON probability matches its own load); the scalar path is
bit-identical to the historical scalar-only implementation.
"""

from __future__ import annotations

import math
from abc import ABC
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.router import params
from repro.router.packet import Packet, bus_mask
from repro.router.params import scalar_load

#: Named here too; their numpy-free home is :mod:`repro.router.params`.
RNG_STREAM_V1, MAX_PORTS = params.RNG_STREAM_V1, params.MAX_PORTS

#: Most raw PCG64 words one replay draws at once; longer blocks are
#: replayed in parts.  Results do not depend on it.
REPLAY_WORDS = 1 << 16


def per_port_loads(load, ports: int) -> tuple[float, np.ndarray]:
    """Normalise a scalar or per-port load to ``(mean, vector)``.

    A scalar expands to a uniform vector; a sequence must have one
    entry per port, each in [0, 1].  The scalar mean is what
    result records report as the offered load.
    """
    array = np.asarray(load, dtype=float)
    if array.ndim == 0:
        value = scalar_load(load)
        return value, np.full(ports, value)
    if array.ndim != 1 or array.size != ports:
        raise ConfigurationError(
            f"per-port load vector needs exactly {ports} entries, "
            f"got shape {array.shape}"
        )
    if float(array.min()) < 0.0 or float(array.max()) > 1.0:
        raise ConfigurationError(
            f"per-port loads must be in [0, 1], got {list(array)}"
        )
    return float(array.mean()), array


def _bit_count(value, name: str, minimum: int = 0) -> int:
    """``value`` as a bit count: an ``int`` (not a ``bool``) >= minimum."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not ok or value < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def _common_width(word_offsets: np.ndarray) -> int | None:
    """The payload word count every packet shares, else None."""
    words = np.diff(word_offsets)
    same = words.size and words.min() == words.max()
    return int(words[0]) if same else None


def draw_payload_batch(
    rng: np.random.Generator, size_bits: np.ndarray, bus_width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random payloads for a batch of packets in one RNG draw.

    Returns ``(words, offsets)`` where ``words`` is the concatenation of
    every packet's payload words (uint64, low ``bus_width`` bits, tail
    words zero-padded exactly like
    :func:`repro.router.packet.make_payload_words`) and
    ``words[offsets[i]:offsets[i+1]]`` is packet ``i``'s payload.
    """
    mask = np.uint64(bus_mask(bus_width))
    sizes = np.asarray(size_bits, dtype=np.int64)
    if sizes.size and int(sizes.min()) < 0:
        raise ConfigurationError("size_bits must be >= 0")
    words_per = (sizes + bus_width - 1) // bus_width
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(words_per, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=np.uint64), offsets
    words = rng.integers(0, 1 << bus_width, size=total, dtype=np.uint64)
    words &= mask
    # Zero-pad the high bits of each packet's final word.
    nonempty = np.flatnonzero(words_per > 0)
    tails = offsets[1:][nonempty] - 1
    tail_bits = (sizes[nonempty] - (words_per[nonempty] - 1) * bus_width).astype(
        np.uint64
    )
    full = tail_bits >= bus_width
    tail_mask = np.where(
        full,
        mask,
        (np.uint64(1) << (tail_bits % np.uint64(bus_width))) - np.uint64(1),
    )
    words[tails] &= tail_mask
    return words, offsets


@dataclass
class ArrivalBatch:
    """One slot's arrivals as parallel arrays (struct-of-arrays).

    Attributes
    ----------
    created_slot: the slot every packet of this batch arrived in.
    bus_width: bus lanes the payload words are shaped for.
    srcs / dests / size_bits / packet_ids: one entry per packet.
    payload_words: all payload words concatenated (uint64).
    word_offsets: ``payload_words[word_offsets[i]:word_offsets[i+1]]``
        is packet ``i``'s payload.
    created_slots: optional per-packet creation slots overriding
        ``created_slot``.  The built-in generators' slot batches leave
        this None (their packets are created in the slot they arrive);
        a block of slots sets it, and the :meth:`from_packets` adapter
        fills it so legacy generators whose packets carry their own
        ``created_slot`` (``Packet`` defaults it to 0) behave
        identically through both engines.
    words_per_packet: the payload word count every packet shares
        (as they do whenever all share one size), None when the counts
        differ or the batch is empty.
        A fixed-size generator's ``size_bits`` and ``word_offsets`` are
        slices of read-only tables that all its slots share.
    """

    created_slot: int
    bus_width: int
    srcs: np.ndarray
    dests: np.ndarray
    size_bits: np.ndarray
    packet_ids: np.ndarray
    payload_words: np.ndarray
    word_offsets: np.ndarray
    created_slots: np.ndarray | None = None
    words_per_packet: int | None = None

    def packet_created_slot(self, i: int) -> int:
        """Creation slot of packet ``i``."""
        if self.created_slots is None:
            return self.created_slot
        return int(self.created_slots[i])

    def __len__(self) -> int:
        return int(self.srcs.size)

    @classmethod
    def empty(cls, slot: int, bus_width: int) -> "ArrivalBatch":
        zero = np.zeros(0, dtype=np.int64)
        return cls(
            created_slot=slot,
            bus_width=bus_width,
            srcs=zero,
            dests=zero,
            size_bits=zero,
            packet_ids=zero,
            payload_words=np.zeros(0, dtype=np.uint64),
            word_offsets=np.zeros(1, dtype=np.int64),
        )

    @classmethod
    def from_packets(
        cls, slot: int, bus_width: int, packets: list[Packet]
    ) -> "ArrivalBatch":
        """Adapter for generators that only produce :class:`Packet` lists."""
        if not packets:
            return cls.empty(slot, bus_width)
        offsets = np.zeros(len(packets) + 1, dtype=np.int64)
        np.cumsum([p.word_count for p in packets], out=offsets[1:])
        payload = (
            np.concatenate([p.payload_words for p in packets])
            if int(offsets[-1])
            else np.zeros(0, dtype=np.uint64)
        )
        return cls(
            created_slot=slot,
            bus_width=bus_width,
            srcs=np.array([p.src_port for p in packets], dtype=np.int64),
            dests=np.array([p.dest_port for p in packets], dtype=np.int64),
            size_bits=np.array([p.size_bits for p in packets], dtype=np.int64),
            packet_ids=np.array([p.packet_id for p in packets], dtype=np.int64),
            payload_words=np.asarray(payload, dtype=np.uint64),
            word_offsets=offsets,
            created_slots=np.array(
                [p.created_slot for p in packets], dtype=np.int64
            ),
            words_per_packet=_common_width(offsets),
        )

    def to_packets(self) -> list[Packet]:
        """Materialise the batch as :class:`Packet` objects."""
        packets = []
        offsets = self.word_offsets
        for i in range(len(self)):
            packets.append(
                Packet(
                    packet_id=int(self.packet_ids[i]),
                    src_port=int(self.srcs[i]),
                    dest_port=int(self.dests[i]),
                    payload_words=self.payload_words[offsets[i] : offsets[i + 1]],
                    size_bits=int(self.size_bits[i]),
                    created_slot=self.packet_created_slot(i),
                )
            )
        return packets


def _join(start: int, bus_width: int, batches: list[ArrivalBatch]) -> ArrivalBatch:
    """Consecutive batches as one, every packet's creation slot set."""
    bases = np.cumsum([0] + [batch.payload_words.size for batch in batches])
    word_offsets = np.concatenate(
        [bases[:1]] + [b.word_offsets[1:] + n for b, n in zip(batches, bases)]
    )
    created = [
        np.full(len(b), b.created_slot, dtype=np.int64)
        if b.created_slots is None
        else b.created_slots
        for b in batches
    ]
    names = ("srcs", "dests", "size_bits", "packet_ids", "payload_words")
    return ArrivalBatch(
        start,
        bus_width,
        *(np.concatenate([getattr(b, name) for b in batches]) for name in names),
        word_offsets=word_offsets,
        created_slots=np.concatenate(created),
        words_per_packet=_common_width(word_offsets),
    )


class TrafficGenerator(ABC):
    """Produces the packets arriving at each ingress port every slot.

    Subclasses implement :meth:`_slot_batch` (preferred — the per-slot
    RNG primitive) or the legacy :meth:`arrivals`; each
    default-delegates to the other.  :meth:`arrivals_batch` is the
    per-slot entry point (the reference engine's; the vectorized engine
    draws :meth:`arrival_block`, which joins it over slots).  It stays
    a method of its own, apart from the hook, because
    ``perfbench/tracing.py`` wraps it by name.
    """

    def __init__(self, ports: int, bus_width: int) -> None:
        if ports < 2:
            raise ConfigurationError("traffic needs >= 2 ports")
        self.ports = ports
        self.bus_width = bus_width
        self._next_packet_id = 0

    def arrivals(self, slot: int, rng: np.random.Generator) -> list[Packet]:
        """Packets arriving during ``slot`` (any ports, any count)."""
        return self.arrivals_batch(slot, rng).to_packets()

    def arrivals_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        """Arrivals of one slot as an :class:`ArrivalBatch`: the
        per-slot entry point, which :meth:`_slot_batch` implements."""
        return self._slot_batch(slot, rng)

    def arrival_block(
        self, start: int, count: int, rng: np.random.Generator
    ) -> tuple[ArrivalBatch, np.ndarray]:
        """The arrivals of slots ``start .. start + count - 1`` (count >= 1).

        Returns ``(batch, offsets)``: packets ``offsets[k]:offsets[k + 1]``
        of ``batch`` arrived in slot ``start + k``, and
        ``batch.created_slots`` is set for every packet.  Draws, packets
        and ids are exactly those of ``count`` :meth:`arrivals_batch`
        calls, which this generic body makes.
        """
        batches = [self.arrivals_batch(start + k, rng) for k in range(count)]
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum([len(batch) for batch in batches], out=offsets[1:])
        return _join(start, self.bus_width, batches), offsets

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        """One slot's arrivals, adapted from :meth:`arrivals`."""
        if type(self).arrivals is TrafficGenerator.arrivals:
            raise ConfigurationError(
                f"{type(self).__name__} implements neither arrivals() nor "
                "_slot_batch()"
            )
        return ArrivalBatch.from_packets(
            slot, self.bus_width, self.arrivals(slot, rng)
        )

    def _claim_packet_ids(self, count: int) -> np.ndarray:
        """Sequential globally-unique packet ids for a batch."""
        ids = np.arange(
            self._next_packet_id, self._next_packet_id + count, dtype=np.int64
        )
        self._next_packet_id += count
        return ids

    def _batch(
        self,
        slot: int,
        rng: np.random.Generator,
        srcs: np.ndarray,
        dests: np.ndarray,
        size_bits: np.ndarray,
    ) -> ArrivalBatch:
        """Assemble a batch: draw payloads, assign ids."""
        payload, offsets = draw_payload_batch(rng, size_bits, self.bus_width)
        return ArrivalBatch(
            created_slot=slot,
            bus_width=self.bus_width,
            srcs=np.asarray(srcs, dtype=np.int64),
            dests=np.asarray(dests, dtype=np.int64),
            size_bits=np.asarray(size_bits, dtype=np.int64),
            packet_ids=self._claim_packet_ids(int(np.asarray(srcs).size)),
            payload_words=payload,
            word_offsets=offsets,
            words_per_packet=_common_width(offsets),
        )

    def _set_packet_bits(self, packet_bits: int) -> None:
        """Fix every packet's size and precompute the payload layout of
        :meth:`_fixed_size_batch` (at most one packet per port per slot)."""
        self.packet_bits = bits = _bit_count(packet_bits, "packet_bits")
        width = self.bus_width
        bus_mask(width)  # validates the width
        self._words_per_packet = words = -(-bits // width)
        tail_bits = bits - (words - 1) * width
        self._tail_mask = (
            np.uint64((1 << tail_bits) - 1) if tail_bits < width else None
        )
        self._size_table = np.full(self.ports, bits, dtype=np.int64)
        self._offset_table = np.arange(self.ports + 1, dtype=np.int64) * words
        self._size_table.flags.writeable = False
        self._offset_table.flags.writeable = False

    def _fixed_size_batch(self, slot, rng, srcs, dests) -> ArrivalBatch:
        """A batch of ``packet_bits``-sized packets: the payload draw of
        :func:`draw_payload_batch`, laid out from the tables."""
        n = srcs.size
        words = self._words_per_packet
        if words:
            # Draws are already below 1 << bus_width: only tails need a mask.
            payload = rng.integers(
                0, 1 << self.bus_width, size=n * words, dtype=np.uint64
            )
            if self._tail_mask is not None:
                payload[words - 1 :: words] &= self._tail_mask
        else:
            payload = np.zeros(0, dtype=np.uint64)
        return ArrivalBatch(
            created_slot=slot,
            bus_width=self.bus_width,
            srcs=srcs,
            dests=dests,
            size_bits=self._size_table[:n],
            packet_ids=self._claim_packet_ids(n),
            payload_words=payload,
            word_offsets=self._offset_table[: n + 1],
            words_per_packet=words,
        )


class BernoulliUniformTraffic(TrafficGenerator):
    """Independent Bernoulli arrivals with uniform random destinations.

    Each slot, each port receives a packet with probability ``load``
    (in cells: ``packet_bits`` defaults to one cell's payload so load is
    directly the offered cell rate).  This is the paper's headline
    workload.

    Parameters
    ----------
    load: arrival probability per port per slot, in [0, 1] — a scalar
        for the paper's uniform offered load, or one value per port
        (``self.load`` then reports the mean).
    packet_bits: payload size of each packet.
    allow_self: include a port's own index among destinations
        (default True — the paper does not exclude it).
    """

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        packet_bits: int = 480,
        bus_width: int = 32,
        allow_self: bool = True,
    ) -> None:
        super().__init__(ports, bus_width)
        self.load, self._load_per_port = per_port_loads(load, ports)
        self._set_packet_bits(packet_bits)
        self.allow_self = allow_self

    def _draw_dests(
        self, rng: np.random.Generator, srcs: np.ndarray
    ) -> np.ndarray:
        dests = rng.integers(0, self.ports, size=srcs.size)
        if not self.allow_self:
            while True:
                bad = np.flatnonzero(dests == srcs)
                if bad.size == 0:
                    break
                dests[bad] = rng.integers(0, self.ports, size=bad.size)
        return dests

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        draws = rng.random(self.ports)
        srcs = (draws < self._load_per_port).nonzero()[0]
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        dests = self._draw_dests(rng, srcs)
        return self._fixed_size_batch(slot, rng, srcs, dests)

    def arrival_block(self, start, count, rng):
        loads = self._load_per_port
        replays = (
            type(self) is BernoulliUniformTraffic
            and self.allow_self
            and self.bus_width == 32
            and type(rng.bit_generator) is np.random.PCG64
            and bool((loads == loads[0]).all())
            and _replay_is_exact()
        )
        if not replays:
            return super().arrival_block(start, count, rng)
        # Bound each raw draw: a slot takes at most ports words for its
        # doubles plus half a word per 32-bit draw.
        slot_words = self.ports * (3 + self._words_per_packet) // 2
        span = max(1, REPLAY_WORDS // slot_words)
        parts = []
        for first in range(start, start + count, span):
            n = min(span, start + count - first)
            part = self._replay(first, n, rng)
            if part is None:
                part = super().arrival_block(first, n, rng)[0]
            parts.append(part)
        block = parts[0] if len(parts) == 1 else _join(start, 32, parts)
        slots = np.arange(start, start + count + 1)
        return block, np.searchsorted(block.created_slots, slots)

    def _replay(self, start, count, rng) -> ArrivalBatch | None:
        """The draws of ``count`` slots replayed from one raw PCG64 draw.

        Returns None, with the generator state restored, when a
        destination draw would be rejected (numpy would then draw again).
        """
        bits = rng.bit_generator
        saved = bits.state
        carry = saved["has_uint32"]
        ports = self.ports
        words = self._words_per_packet
        per = 1 + words  # 32-bit draws per packet: destination, payload
        raw = bits.random_raw(count * ports + -(-count * ports * per // 2))
        # random() maps a word to (raw >> 11) * 2**-53, which is below
        # the load iff the word is below ceil(load * 2**53) << 11.
        load = float(self._load_per_port[0])
        if load < 1.0:
            fire = raw < np.uint64(math.ceil(load * 2.0**53) << 11)
        else:
            fire = np.ones(raw.size, dtype=bool)
        fired = np.zeros(raw.size + 1, dtype=np.int64)
        np.cumsum(fire, out=fired[1:])
        # A slot's doubles take `ports` words; its 32-bit draws then take
        # the buffered half, if any, and fresh words low half first.
        starts = [0] * count
        used = drawn = 0
        for k in range(count):
            starts[k] = used
            drawn += per * (int(fired[used + ports]) - int(fired[used]))
            used = (k + 1) * ports + (max(0, drawn - carry) + 1) // 2
        window = np.add.outer(starts, np.arange(ports))
        slots, srcs = np.nonzero(fire[window])
        halves = np.ones(used, dtype=bool)
        halves[window] = False
        stream = raw[:used][halves].view(np.uint32)
        if carry:
            buffered = np.array([saved["uinteger"]], dtype=np.uint32)
            stream = np.concatenate((buffered, stream))
        # Each slot's draws: its destinations, then its payload words.
        n = srcs.size
        offsets = np.searchsorted(slots, np.arange(count + 1))
        first = offsets[slots]
        local = np.arange(n) - first
        scaled = stream[per * first + local].astype(np.uint64) * np.uint64(ports)
        threshold = _lemire_threshold(ports)
        if threshold and np.any((scaled & 0xFFFFFFFF) < threshold):
            bits.state = saved
            return None
        if words:
            at = per * first + offsets[slots + 1] - first + local * words
            payload = stream[at[:, None] + np.arange(words)].astype(np.uint64)
            if self._tail_mask is not None:
                payload[:, -1] &= self._tail_mask
            payload = payload.ravel()
        else:
            payload = np.zeros(0, dtype=np.uint64)
        # The words consumed, and the high half of the last word used for
        # 32-bit draws left buffered when an odd count used its low half.
        bits.state = saved
        bits.advance(used)
        if (per * n + carry) % 2:
            state = bits.state
            state["has_uint32"], state["uinteger"] = 1, int(stream[per * n])
            bits.state = state
        return ArrivalBatch(
            created_slot=start,
            bus_width=self.bus_width,
            srcs=srcs,
            dests=(scaled >> 32).astype(np.int64),
            size_bits=np.full(n, self.packet_bits, dtype=np.int64),
            packet_ids=self._claim_packet_ids(n),
            payload_words=payload,
            word_offsets=np.arange(n + 1, dtype=np.int64) * words,
            created_slots=slots + start,
            words_per_packet=words if n else None,
        )


def _lemire_threshold(ports: int) -> int:
    """numpy draws ``integers(0, ports)`` from a 32-bit ``u`` as
    ``(u * ports) >> 32``, rejecting ``u`` when the low 32 bits of the
    product fall below this (Lemire's method; 0 for powers of two)."""
    return (1 << 32) % ports


#: Whether the replay matches this numpy's Generator calls:
#: a property of the install, so one probe serves the whole process.
#: None until the first replay probes it.
_replay_exact: bool | None = None


def _replay_is_exact() -> bool:
    """Probe the replay once against real Generator calls: several blocks
    of 5 ports and 40-bit packets (three 32-bit draws each, the last
    payload word masked).  A difference, or an error, turns it off."""
    global _replay_exact
    if _replay_exact is None:
        _replay_exact = False
        twins = [BernoulliUniformTraffic(5, 0.7, packet_bits=40) for _ in "ab"]
        rngs = [np.random.default_rng(2002) for _ in "ab"]
        try:
            same = True
            for start, count in ((0, 3), (3, 1), (4, 9), (13, 5)):
                got = twins[0]._replay(start, count, rngs[0])
                want = TrafficGenerator.arrival_block(
                    twins[1], start, count, rngs[1]
                )[0]
                state, real = (rng.bit_generator.state for rng in rngs)
                if not real["has_uint32"]:  # numpy never reads it then
                    real["uinteger"] = state["uinteger"]
                same = same and got is not None and state == real and all(
                    np.array_equal(getattr(got, name), getattr(want, name))
                    for name in ("srcs", "dests", "payload_words")
                )
            _replay_exact = same
        except (AttributeError, KeyError, TypeError, ValueError):
            pass  # a bit generator without this numpy's state or methods
    return _replay_exact


class HotspotTraffic(BernoulliUniformTraffic):
    """Uniform traffic with a fraction of packets aimed at one port.

    With probability ``hotspot_fraction`` a packet targets
    ``hotspot_port``; otherwise the destination is uniform.  Models the
    server/gateway overload scenario classic in switch evaluations.
    """

    def __init__(
        self,
        ports: int,
        load: float,
        hotspot_port: int = 0,
        hotspot_fraction: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(ports, load, **kwargs)
        if not 0 <= hotspot_port < ports:
            raise ConfigurationError("hotspot_port out of range")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot_fraction must be in [0, 1]")
        self.hotspot_port = hotspot_port
        self.hotspot_fraction = hotspot_fraction

    def _draw_dests(
        self, rng: np.random.Generator, srcs: np.ndarray
    ) -> np.ndarray:
        hot = rng.random(srcs.size) < self.hotspot_fraction
        dests = np.full(srcs.size, self.hotspot_port, dtype=np.int64)
        cold = np.flatnonzero(~hot)
        if cold.size:
            dests[cold] = rng.integers(0, self.ports, size=cold.size)
        return dests


class PermutationTraffic(BernoulliUniformTraffic):
    """Each source always targets one fixed destination (a permutation):
    Bernoulli arrivals whose destinations take no draws.

    Contention free at admission by construction — useful to isolate
    interconnect contention (banyan internal blocking still occurs for
    non-identity permutations).
    """

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        permutation: list[int] | None = None,
        packet_bits: int = 480,
        bus_width: int = 32,
    ) -> None:
        super().__init__(ports, load, packet_bits, bus_width)
        if permutation is None:
            permutation = [(p + 1) % ports for p in range(ports)]
        if sorted(permutation) != list(range(ports)):
            raise ConfigurationError("permutation must be a bijection on ports")
        self.permutation = list(permutation)
        self._permutation_array = np.array(permutation, dtype=np.int64)

    def _draw_dests(self, rng, srcs):
        return self._permutation_array[srcs]


class BurstyTraffic(TrafficGenerator):
    """Two-state on/off (Markov-modulated) arrivals per port.

    In the ON state a port emits a packet every slot; state dwell times
    are geometric with mean ``burst_len`` (ON) chosen so the long-run
    load equals ``load``.  Bursty arrivals stress queues far more than
    Bernoulli at equal load — the classic motivation for buffer
    ablations.

    ``load`` may be a per-port vector: every port keeps the shared mean
    ON dwell ``burst_len`` while its OFF dwell is calibrated so the
    port's stationary ON probability equals its own target load (a port
    at load 0 simply never turns on).  A scalar load takes the exact
    historical code path — same dwell parameters, same RNG draws —
    so scalar results stay bit-identical.
    """

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        burst_len: float = 8.0,
        packet_bits: int = 480,
        bus_width: int = 32,
    ) -> None:
        super().__init__(ports, bus_width)
        if burst_len < 1.0:
            raise ConfigurationError("burst_len must be >= 1")
        if np.ndim(load) == 0:
            if not 0.0 < float(load) < 1.0:
                raise ConfigurationError("bursty load must be in (0, 1)")
        self.load, load_per_port = per_port_loads(load, ports)
        if float(load_per_port.max()) >= 1.0:
            raise ConfigurationError(
                "per-port bursty loads must be < 1 (a port at load 1.0 "
                "never leaves the ON state)"
            )
        self.burst_len = burst_len
        self._set_packet_bits(packet_bits)
        self._load_per_port = load_per_port
        # P(ON -> OFF) and per-port P(OFF -> ON) giving mean ON dwell
        # burst_len and stationary P(ON) = that port's load.  The
        # element-wise arithmetic mirrors the historical scalar formula
        # operation-for-operation, so a uniform vector (and the scalar
        # fast path) produces bit-identical dwell parameters.
        self._p_off = 1.0 / burst_len
        with np.errstate(divide="ignore"):
            off_dwell = burst_len * (1.0 - load_per_port) / load_per_port
            self._p_on = np.where(load_per_port > 0.0, 1.0 / off_dwell, 0.0)
        self._state: np.ndarray | None = None

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        if self._state is None:
            self._state = rng.random(self.ports) < self._load_per_port
        flips = rng.random(self.ports)
        self._state = np.where(
            self._state, flips >= self._p_off, flips < self._p_on
        )
        srcs = self._state.nonzero()[0]
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        dests = rng.integers(0, self.ports, size=srcs.size)
        return self._fixed_size_batch(slot, rng, srcs, dests)


class TrimodalPacketTraffic(TrafficGenerator):
    """Internet-like trimodal packet size mix (40 / 576 / 1500 bytes).

    Models the paper's "TCP/IP packet traffic flow" more literally than
    single-cell packets: packets segment into several cells and the
    egress units reassemble them.  ``load`` is the offered load in
    *cells* per port per slot; packet arrivals are thinned accordingly.
    """

    #: (size_bytes, probability) — the classic Internet mix.
    DEFAULT_MIX = ((40, 0.55), (576, 0.25), (1500, 0.20))

    def __init__(
        self,
        ports: int,
        load: float | list[float],
        mix: tuple[tuple[int, float], ...] = DEFAULT_MIX,
        cell_payload_bits: int = 480,
        bus_width: int = 32,
    ) -> None:
        super().__init__(ports, bus_width)
        self.load, load_per_port = per_port_loads(load, ports)
        total_p = sum(p for _, p in mix)
        if abs(total_p - 1.0) > 1e-9:
            raise ConfigurationError("mix probabilities must sum to 1")
        self.mix = tuple(mix)
        self.cell_payload_bits = _bit_count(
            cell_payload_bits, "cell_payload_bits", minimum=1
        )
        self._sizes = np.array([s * 8 for s, _ in mix])
        self._probs = np.array([p for _, p in mix])
        cells_per_packet = np.ceil(self._sizes / cell_payload_bits)
        self._mean_cells = float((cells_per_packet * self._probs).sum())
        self._rate_per_port = np.minimum(1.0, load_per_port / self._mean_cells)

    @property
    def packet_rate(self) -> float:
        """Mean packet arrival probability per port per slot."""
        return min(1.0, self.load / self._mean_cells)

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        draws = rng.random(self.ports)
        srcs = np.flatnonzero(draws < self._rate_per_port)
        if srcs.size == 0:
            return ArrivalBatch.empty(slot, self.bus_width)
        sizes = rng.choice(self._sizes, size=srcs.size, p=self._probs).astype(
            np.int64
        )
        dests = rng.integers(0, self.ports, size=srcs.size)
        return self._batch(slot, rng, srcs, dests, sizes)


@dataclass(frozen=True)
class TraceEntry:
    """One scripted arrival: (slot, src, dest, size_bits)."""

    slot: int
    src: int
    dest: int
    size_bits: int


class TraceTraffic(TrafficGenerator):
    """Replays a fixed list of arrivals — the deterministic workhorse of
    the test suite (payload bits are still drawn from the engine rng
    unless the test supplies packets directly through the ingress)."""

    def __init__(
        self, ports: int, entries: list[TraceEntry], bus_width: int = 32
    ) -> None:
        super().__init__(ports, bus_width)
        by_slot: dict[int, list[TraceEntry]] = {}
        for entry in entries:
            if not 0 <= entry.src < ports or not 0 <= entry.dest < ports:
                raise ConfigurationError(f"trace entry out of range: {entry}")
            by_slot.setdefault(entry.slot, []).append(entry)
        #: slot -> (srcs, dests, size_bits) of its scripted arrivals
        self._by_slot = {
            slot: tuple(
                np.array([getattr(e, name) for e in rows], dtype=np.int64)
                for name in ("src", "dest", "size_bits")
            )
            for slot, rows in by_slot.items()
        }

    def _slot_batch(self, slot: int, rng: np.random.Generator) -> ArrivalBatch:
        arrivals = self._by_slot.get(slot)
        if arrivals is None:
            return ArrivalBatch.empty(slot, self.bus_width)
        return self._batch(slot, rng, *arrivals)
