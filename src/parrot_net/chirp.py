"""Wire codec for the 40-byte chirp message and SEQ freshness arithmetic.

Frame layout, all fields big-endian, floats IEEE-754 binary32:

    offset  0   originator address   u32
    offset  4   current position     3 x f32 (x, y, z)
    offset 16   predicted position   3 x f32 (x, y, z)
    offset 28   reward V             f32, in [0, 1]
    offset 32   cohesion             f32, in [0, 1]
    offset 36   SEQ                  u16
    offset 38   TTL                  u16
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .kinematics import Vec3, slot_init

_FRAME = struct.Struct(">I3f3fffHH")

CHIRP_SIZE = _FRAME.size
assert CHIRP_SIZE == 40

_SEQ_MOD = 1 << 16
_SEQ_HALF = 1 << 15


class MalformedFrameError(ValueError):
    """Frame cannot be parsed at all (wrong length)."""


class ChirpValidationError(ValueError):
    """Field values violate the chirp's semantic domain."""


@slot_init
@dataclass(frozen=True, slots=True)
class Chirp:
    """One routing beacon.  Float fields live on the wire as binary32, so a
    decoded chirp carries binary32-quantized values."""

    originator: int
    position: Vec3
    predicted_position: Vec3
    reward: float
    cohesion: float
    seq: int
    ttl: int


def _check(originator: int, px: float, py: float, pz: float, qx: float, qy: float,
           qz: float, reward: float, cohesion: float, seq: int, ttl: int) -> None:
    """Refuse field values outside the chirp domain, given in wire order."""
    if not 0 <= originator < (1 << 32):
        raise ChirpValidationError(f"originator {originator} out of u32 range")
    isfinite = math.isfinite
    if not (isfinite(px) and isfinite(py) and isfinite(pz)
            and isfinite(qx) and isfinite(qy) and isfinite(qz)):
        raise ChirpValidationError("position fields must be finite")
    if not (isfinite(reward) and 0.0 <= reward <= 1.0):
        raise ChirpValidationError(f"reward {reward} outside [0, 1]")
    if not (isfinite(cohesion) and 0.0 <= cohesion <= 1.0):
        raise ChirpValidationError(f"cohesion {cohesion} outside [0, 1]")
    if not 0 <= seq < _SEQ_MOD:
        raise ChirpValidationError(f"seq {seq} out of u16 range")
    if not 0 <= ttl < _SEQ_MOD:
        raise ChirpValidationError(f"ttl {ttl} out of u16 range")


def encode_chirp(c: Chirp) -> bytes:
    """Encode to the 40-byte frame; refuses invariant-violating chirps."""
    p, q = c.position, c.predicted_position
    fields = (c.originator, p.x, p.y, p.z, q.x, q.y, q.z, c.reward, c.cohesion, c.seq, c.ttl)
    _check(*fields)
    return _FRAME.pack(*fields)


def decode_chirp(frame: bytes) -> Chirp:
    """Field-exact inverse of encode_chirp.

    Raises MalformedFrameError on wrong length and ChirpValidationError when
    decoded values fall outside the chirp domain (callers drop such frames).
    """
    if len(frame) != CHIRP_SIZE:
        raise MalformedFrameError(f"expected {CHIRP_SIZE} bytes, got {len(frame)}")
    fields = _FRAME.unpack(frame)
    orig, px, py, pz, qx, qy, qz, reward, cohesion, seq, ttl = fields
    # The whole domain in one test: the integer fields cannot leave their
    # wire ranges, comparisons with NaN are false, and a sum of six finite
    # binary32 values cannot overflow a double, so it is finite exactly
    # when all six are.  `_check` then names the field at fault.
    if not (0.0 <= reward <= 1.0 and 0.0 <= cohesion <= 1.0
            and math.isfinite(px + py + pz + qx + qy + qz)):
        _check(*fields)
    return Chirp(orig, Vec3(px, py, pz), Vec3(qx, qy, qz), reward, cohesion, seq, ttl)


def seq_newer(incoming: int, stored: int) -> bool:
    """Wraparound-aware freshness: newer iff ahead by less than half the
    sequence space.  Equal sequence numbers are not newer."""
    return 0 < (incoming - stored) % _SEQ_MOD < _SEQ_HALF
