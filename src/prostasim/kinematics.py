"""Forward/inverse kinematics of the 7-DOF needle manipulator.

Two ideal x-y stages in parallel planes hold the needle guide; their
offsets set the needle line.  A joint z translation moves both stages,
and separate motors drive needle insertion depth and needle rotation.
The front stage plane sits at ``front_plane_z`` in the working frame
(the perineal entry plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(eq=False)
class Trajectory(geometry.Columns):
    """K planned needle lines, as columns: line k enters at ``entry[k]`` along the unit ``dir[k]``.

    ``planned_depth`` is the distance from the entry to the target, and
    ``approach`` is ``planning.HORIZONTAL`` or ``planning.ANGLED``.
    ``rows(k)`` holds one line's values.
    """

    entry: np.ndarray  # (K, 3)
    dir: np.ndarray  # (K, 3)
    planned_depth: np.ndarray  # (K,)
    approach: np.ndarray  # (K,) str


class OutOfReach(ValueError):
    """No joint state within travel limits realizes the trajectory."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def angulation_deg(dirs):
    """Angle between a direction (3,), or each of a stack (K, 3), and the +z insertion axis, in degrees."""
    d = geometry.normalize(dirs)
    return np.degrees(np.arccos(np.clip(d[..., 2], -1.0, 1.0)))


def inverse_kinematics(geom: RobotGeometry, entries, dirs) -> np.ndarray:
    """Stage coordinates whose needle lines realize K trajectories.

    Line k passes through ``entries[k]`` along ``dirs[k]``.  Returns (K, 4)
    rows of front x, front y, back x and back y, the pre-insertion pose:
    insertion depth 0 and z_offset 0 (the canonical solution; the z DOF
    is redundant for the line).

    Raises OutOfReach listing every violated limit of the first line that
    violates one.
    """
    entries = np.asarray(entries, dtype=np.float64)
    d = geometry.normalize(dirs)
    ang = angulation_deg(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_front = (geom.front_plane_z - entries[:, 2]) / d[:, 2]
        t_back = (geom.front_plane_z - geom.stage_separation - entries[:, 2]) / d[:, 2]
        front = entries + t_front[:, None] * d
        back = entries + t_back[:, None] * d
    stages = np.stack([front[:, 0], front[:, 1], back[:, 0], back[:, 1]], axis=1)
    steep = ang > geom.max_angulation + 1e-9
    backward = ~(d[:, 2] > 0)
    beyond = np.abs(stages) > geom.stage_travel + 1e-9
    bad = np.flatnonzero(steep | backward | beyond.any(axis=1))
    if bad.size:
        k = bad[0]
        if backward[k]:
            raise OutOfReach(["direction does not advance along +z"])
        violations = []
        if steep[k]:
            violations.append(f"angulation {ang[k]:.3f} deg exceeds max_angulation {geom.max_angulation}")
        violations += [
            f"{name} {value:.3f} mm exceeds travel +/-{geom.stage_travel}"
            for name, value, out in zip(("front_x", "front_y", "back_x", "back_y"), stages[k], beyond[k])
            if out
        ]
        raise OutOfReach(violations)
    return stages


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


def advance_insertion(geom: RobotGeometry, depth, angle, depth_change):
    """Drive K insertion axes from ``depth`` and rotation ``angle`` by ``depth_change``.

    Returns the (depth, angle, seconds) arrays after the move; a depth
    stops at 0.  The needle rotates during the move, so the rotation angle
    accumulates at rotation_speed.
    """
    duration = insertion_duration(geom, depth_change)
    angle = angle + geom.rotation_speed * duration * 360.0
    depth = depth + depth_change
    return np.where(depth < 0, 0.0, depth), angle, duration
