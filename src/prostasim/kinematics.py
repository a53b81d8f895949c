"""Forward/inverse kinematics of the 7-DOF needle manipulator.

Two ideal x-y stages in parallel planes hold the needle guide; their
offsets set the needle line.  A joint z translation moves both stages,
and separate motors drive needle insertion depth and needle rotation.
The front stage plane sits at ``front_plane_z`` in the working frame
(the perineal entry plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry


@dataclass
class RobotGeometry:
    stage_separation: float = 100.0
    stage_travel: float = 40.0
    z_travel: float = 120.0
    max_angulation: float = 15.0
    insertion_speed: float = 5.0
    rotation_speed: float = 8.0
    front_plane_z: float = -60.0

    def validate(self):
        for name in ("stage_separation", "stage_travel", "z_travel", "max_angulation",
                     "insertion_speed", "rotation_speed"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # the stages must physically be able to reach the advertised angle
        reachable = math.degrees(math.atan(2.0 * self.stage_travel / self.stage_separation))
        if self.max_angulation > reachable + 1e-9:
            raise ValueError(
                f"max_angulation {self.max_angulation} deg exceeds the "
                f"{reachable:.2f} deg reachable with stage_travel {self.stage_travel}"
            )


@dataclass
class JointState:
    front_x: float
    front_y: float
    back_x: float
    back_y: float
    z_offset: float = 0.0
    insertion_depth: float = 0.0
    rotation_angle: float = 0.0


@dataclass
class Trajectory:
    entry: np.ndarray
    dir: np.ndarray
    planned_depth: float
    approach: str

    def __post_init__(self):
        self.entry = np.asarray(self.entry, dtype=np.float64).reshape(3)
        self.dir = np.asarray(self.dir, dtype=np.float64).reshape(3)


class OutOfReach(ValueError):
    """No joint state within travel limits realizes the trajectory."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def angulation_deg(dir) -> float:
    """Angle between ``dir`` and the +z insertion axis, in degrees."""
    d = geometry.normalize(dir)
    return float(np.degrees(np.arccos(np.clip(d[2], -1.0, 1.0))))


def inverse_kinematics(geom: RobotGeometry, traj: Trajectory) -> JointState:
    """Stage coordinates whose needle line realizes ``traj``.

    The returned state has insertion_depth 0 (pre-insertion pose) and
    z_offset 0 (canonical solution; the z DOF is redundant for the line).

    Raises OutOfReach listing every violated limit.
    """
    d = geometry.normalize(traj.dir)
    violations = []
    ang = angulation_deg(d)
    if ang > geom.max_angulation + 1e-9:
        violations.append(
            f"angulation {ang:.3f} deg exceeds max_angulation {geom.max_angulation}"
        )
    if d[2] <= 0:
        raise OutOfReach(["direction does not advance along +z"])

    entry = traj.entry
    t_front = (geom.front_plane_z - entry[2]) / d[2]
    front = entry + t_front * d
    t_back = (geom.front_plane_z - geom.stage_separation - entry[2]) / d[2]
    back = entry + t_back * d

    for name, value in (
        ("front_x", front[0]),
        ("front_y", front[1]),
        ("back_x", back[0]),
        ("back_y", back[1]),
    ):
        if abs(value) > geom.stage_travel + 1e-9:
            violations.append(
                f"{name} {value:.3f} mm exceeds travel +/-{geom.stage_travel}"
            )
    if violations:
        raise OutOfReach(violations)
    return JointState(float(front[0]), float(front[1]), float(back[0]), float(back[1]))


def forward_kinematics(geom: RobotGeometry, js: JointState):
    """Needle line and tip implied by a joint state.

    Returns (entry, dir, tip): entry is the needle guide point on the
    front stage plane, dir the unit direction, tip the needle tip at
    ``insertion_depth`` along dir.
    """
    front = np.array([js.front_x, js.front_y, geom.front_plane_z + js.z_offset])
    back = np.array(
        [js.back_x, js.back_y, geom.front_plane_z - geom.stage_separation + js.z_offset]
    )
    d = geometry.normalize(front - back)
    tip = front + js.insertion_depth * d
    return front, d, tip


def insertion_duration(geom: RobotGeometry, depth_change: float) -> float:
    """Seconds to move the insertion axis by ``depth_change`` mm."""
    return abs(depth_change) / geom.insertion_speed


def advance_insertion(
    geom: RobotGeometry, js: JointState, depth_change: float, rotating: bool = True
) -> tuple[JointState, float]:
    """Drive the insertion axis by ``depth_change``; returns (state, seconds).

    The rotation angle accumulates at rotation_speed while the needle is
    rotating during the move.
    """
    duration = insertion_duration(geom, depth_change)
    angle = js.rotation_angle + (geom.rotation_speed * duration * 360.0 if rotating else 0.0)
    depth = js.insertion_depth + depth_change
    if depth < 0:
        depth = 0.0
    return replace(js, insertion_depth=depth, rotation_angle=angle), duration
