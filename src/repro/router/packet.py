"""Packets entering the router.

The paper drives its platform with TCP/IP packets whose payloads are
random binary bits and whose IP addresses have already been translated
into destination port numbers by the ingress process unit (Section 5.2).
:class:`Packet` models exactly that post-translation view: a source
port, a destination port, and a payload of real bits (the simulator is
bit-accurate, so payload *content* matters for wire energy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.router.params import bus_mask


def make_payload_words(
    rng: np.random.Generator, size_bits: int, bus_width: int
) -> np.ndarray:
    """Random payload of ``size_bits`` bits as bus words (uint64 array).

    The final word is zero-padded in its high bits when ``size_bits`` is
    not a multiple of ``bus_width``, mirroring how an ingress unit pads
    the tail of a serial stream onto a parallel bus.
    """
    if size_bits < 0:
        raise ConfigurationError("size_bits must be >= 0")
    mask = bus_mask(bus_width)
    n_words = (size_bits + bus_width - 1) // bus_width
    if n_words == 0:
        return np.zeros(0, dtype=np.uint64)
    words = rng.integers(0, 1 << bus_width, size=n_words, dtype=np.uint64)
    words &= np.uint64(mask)
    tail_bits = size_bits - (n_words - 1) * bus_width
    if tail_bits < bus_width:
        words[-1] &= np.uint64((1 << tail_bits) - 1)
    return words


@dataclass
class Packet:
    """A packet after ingress header translation.

    Attributes
    ----------
    packet_id: globally unique identifier.
    src_port: ingress port index.
    dest_port: egress port index (already arbitration-ready).
    payload_words: payload as bus words (uint64, low ``bus_width`` bits).
    size_bits: exact payload size in bits (may be less than
        ``len(payload_words) * bus_width`` due to tail padding).
    created_slot: slot at which the packet arrived at the ingress unit.
    """

    packet_id: int
    src_port: int
    dest_port: int
    payload_words: np.ndarray
    size_bits: int
    created_slot: int = 0

    def __post_init__(self) -> None:
        if self.src_port < 0 or self.dest_port < 0:
            raise ConfigurationError("ports must be non-negative")
        if self.size_bits < 0:
            raise ConfigurationError("size_bits must be >= 0")
        self.payload_words = np.asarray(self.payload_words, dtype=np.uint64)

    @property
    def word_count(self) -> int:
        return int(self.payload_words.size)

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        packet_id: int,
        src_port: int,
        dest_port: int,
        size_bits: int,
        bus_width: int,
        created_slot: int = 0,
    ) -> "Packet":
        """Build a packet with random payload bits (paper Section 5.2)."""
        words = make_payload_words(rng, size_bits, bus_width)
        return cls(
            packet_id=packet_id,
            src_port=src_port,
            dest_port=dest_port,
            payload_words=words,
            size_bits=size_bits,
            created_slot=created_slot,
        )
