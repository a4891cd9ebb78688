"""Camera/projector calibration from checkerboard observations and sync events.

The projector is calibrated as an inverse camera: the same planar method
runs on the corners expressed in projector pixels. Scan-start synchronization
uses a burst of laser-generated events a known offset before the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .events import EventStream
from .geometry import PinholeModel, project_points


class DegenerateBoardError(ValueError):
    """Corner configuration does not determine the estimate."""


class UnidentifiableError(ValueError):
    """Not enough independent board orientations for intrinsics."""


class SyncNotFoundError(ValueError):
    """No sync burst found at the start of the stream."""


@dataclass(frozen=True, eq=False)
class CheckerboardObservation:
    """Corner correspondences for one board pose.

    ``corners_board`` are planar board coordinates in mm (z = 0 implied);
    ``corners_projector`` is present when the dual-scan overlap converted the
    corners to projector pixels, enabling inverse-camera calibration.
    """

    board_id: int
    corners_camera: np.ndarray  # (N, 2) px
    corners_board: np.ndarray  # (N, 2) mm
    corners_projector: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "corners_camera", np.asarray(self.corners_camera, dtype=np.float64).reshape(-1, 2))
        object.__setattr__(self, "corners_board", np.asarray(self.corners_board, dtype=np.float64).reshape(-1, 2))
        if self.corners_projector is not None:
            object.__setattr__(
                self, "corners_projector", np.asarray(self.corners_projector, dtype=np.float64).reshape(-1, 2)
            )
            if len(self.corners_projector) != len(self.corners_camera):
                raise ValueError("projector corner list must match camera corners")
        if len(self.corners_camera) != len(self.corners_board) or len(self.corners_camera) < 4:
            raise ValueError("need >= 4 paired corners")


@dataclass(frozen=True)
class SyncConfig:
    known_offset_us: int
    burst_duration_us: int

    def __post_init__(self):
        if not self.known_offset_us > self.burst_duration_us >= 0:
            raise ValueError("need known_offset > burst_duration >= 0")


def _normalize_points(pts: np.ndarray):
    centroid = pts.mean(axis=0)
    d = np.linalg.norm(pts - centroid, axis=1).mean()
    if d < 1e-12:
        raise DegenerateBoardError("all points coincide")
    s = np.sqrt(2.0) / d
    T = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    h = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ T.T
    return h, T


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Normalized DLT homography mapping src (board mm) to dst (pixels).

    Scaled so H[2, 2] = 1. Raises DegenerateBoardError for collinear input.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if len(src) != len(dst) or len(src) < 4:
        raise ValueError("need >= 4 correspondences")
    for pts in (src, dst):
        centered = pts - pts.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        if s[1] < 1e-9 * max(s[0], 1.0):
            raise DegenerateBoardError("correspondences are collinear")
    hs, Ts = _normalize_points(src)
    hd, Td = _normalize_points(dst)
    n = len(src)
    A = np.zeros((2 * n, 9))
    A[0::2, 0:3] = -hs
    A[0::2, 6:9] = hd[:, 0:1] * hs
    A[1::2, 3:6] = -hs
    A[1::2, 6:9] = hd[:, 1:2] * hs
    _, _, vt = np.linalg.svd(A)
    H = vt[-1].reshape(3, 3)
    H = np.linalg.inv(Td) @ H @ Ts
    if abs(H[2, 2]) < 1e-12:
        raise DegenerateBoardError("degenerate homography (H[2,2] ~ 0)")
    return H / H[2, 2]


def homography_of(obs: CheckerboardObservation, target: str = "camera") -> np.ndarray:
    dst = obs.corners_camera if target == "camera" else obs.corners_projector
    if dst is None:
        raise ValueError(f"board {obs.board_id} has no projector corners")
    return estimate_homography(obs.corners_board, dst)


def homography_residual(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> float:
    """RMS reprojection residual of a homography, in destination pixels."""
    h = np.concatenate([np.asarray(src, dtype=np.float64), np.ones((len(src), 1))], axis=1) @ H.T
    proj = h[:, :2] / h[:, 2:3]
    d = proj - dst
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


@dataclass
class IntrinsicsResult:
    """Closed-form planar calibration output; no nonlinear refinement."""

    model: PinholeModel
    board_rotations: list = field(default_factory=list)
    board_translations: list = field(default_factory=list)
    mean_reprojection_px: float = 0.0


def _vij(H: np.ndarray, i: int, j: int) -> np.ndarray:
    return np.array(
        [
            H[0, i] * H[0, j],
            H[0, i] * H[1, j] + H[1, i] * H[0, j],
            H[1, i] * H[1, j],
            H[2, i] * H[0, j] + H[0, i] * H[2, j],
            H[2, i] * H[1, j] + H[1, i] * H[2, j],
            H[2, i] * H[2, j],
        ]
    )


def zhang_intrinsics(
    observations: list[CheckerboardObservation],
    target: str = "camera",
    sensor_size: tuple[int, int] = (1280, 720),
) -> IntrinsicsResult:
    """Closed-form planar intrinsics (fx, fy, cx, cy, skew) plus board poses.

    ``target`` selects which corner channel is used: "camera" or "projector"
    (the inverse-camera treatment). Needs >= 3 boards in distinct
    orientations; parallel boards leave the solution unidentifiable.
    """
    if len(observations) < 3:
        raise UnidentifiableError("planar intrinsics need >= 3 board poses")
    Hs = [homography_of(obs, target) for obs in observations]
    V = []
    for H in Hs:
        V.append(_vij(H, 0, 1))
        V.append(_vij(H, 0, 0) - _vij(H, 1, 1))
    V = np.asarray(V)
    _, s, vt = np.linalg.svd(V)
    if s[-2] < 1e-9 * s[0]:
        raise UnidentifiableError("board orientations are degenerate (parallel boards)")
    b = vt[-1]
    if b[0] < 0:  # B must be positive definite; the SVD sign is arbitrary
        b = -b
    B11, B12, B22, B13, B23, B33 = b
    den = B11 * B22 - B12 * B12
    if den <= 0 or B11 <= 0:
        raise UnidentifiableError("board set does not constrain a real camera")
    v0 = (B12 * B13 - B11 * B23) / den
    lam = B33 - (B13 * B13 + v0 * (B12 * B13 - B11 * B23)) / B11
    if lam <= 0 or lam / B11 <= 0:
        raise UnidentifiableError("board set does not constrain a real camera")
    alpha = float(np.sqrt(lam / B11))
    beta = float(np.sqrt(lam * B11 / den))
    gamma = float(-B12 * alpha * alpha * beta / lam)
    u0 = float(gamma * v0 / beta - B13 * alpha * alpha / lam)
    K = np.array([[alpha, gamma, u0], [0.0, beta, v0], [0.0, 0.0, 1.0]])
    Kinv = np.linalg.inv(K)

    rotations = []
    translations = []
    for H in Hs:
        h1, h2, h3 = H[:, 0], H[:, 1], H[:, 2]
        lam_i = 1.0 / np.linalg.norm(Kinv @ h1)
        r1 = lam_i * (Kinv @ h1)
        r2 = lam_i * (Kinv @ h2)
        t = lam_i * (Kinv @ h3)
        if t[2] < 0:  # board must sit in front of the device
            r1, r2, t = -r1, -r2, -t
        r3 = np.cross(r1, r2)
        R = np.stack([r1, r2, r3], axis=1)
        U, _, Vt = np.linalg.svd(R)
        R = U @ Vt
        if np.linalg.det(R) < 0:
            U[:, -1] = -U[:, -1]
            R = U @ Vt
        rotations.append(R)
        translations.append(t)

    model = PinholeModel(
        fx=alpha,
        fy=beta,
        cx=u0,
        cy=float(v0),
        width=sensor_size[0],
        height=sensor_size[1],
        skew=gamma,
    )
    errs = []
    for obs, R, t in zip(observations, rotations, translations):
        board3d = np.concatenate([obs.corners_board, np.zeros((len(obs.corners_board), 1))], axis=1)
        px, _ = project_points(replace(model, rotation=R, translation=t), board3d)
        ref = obs.corners_camera if target == "camera" else obs.corners_projector
        errs.append(np.linalg.norm(px - ref, axis=1))
    mean_err = float(np.mean(np.concatenate(errs)))
    return IntrinsicsResult(model, rotations, translations, mean_err)


def calibrate_rig(
    observations: list[CheckerboardObservation],
    camera_size: tuple[int, int],
    projector_size: tuple[int, int],
) -> tuple[PinholeModel, PinholeModel]:
    """Joint rig calibration in the camera frame (camera pose = identity).

    Boards carrying both corner channels tie the two devices together; the
    projector pose is the average relative pose over those boards.
    """
    cam = zhang_intrinsics(observations, "camera", camera_size)
    both = [o for o in observations if o.corners_projector is not None]
    if len(both) < 3:
        raise UnidentifiableError("rig calibration needs >= 3 boards seen by both devices")
    proj = zhang_intrinsics(both, "projector", projector_size)
    cam_idx = {id(o): i for i, o in enumerate(observations)}
    R_sum = np.zeros((3, 3))
    t_acc = []
    for j, obs in enumerate(both):
        i = cam_idx[id(obs)]
        R_cb, t_cb = cam.board_rotations[i], cam.board_translations[i]
        R_pb, t_pb = proj.board_rotations[j], proj.board_translations[j]
        R_pc = R_pb @ R_cb.T
        t_pc = t_pb - R_pc @ t_cb
        R_sum += R_pc
        t_acc.append(t_pc)
    U, _, Vt = np.linalg.svd(R_sum)
    R_pc = U @ Vt
    if np.linalg.det(R_pc) < 0:
        U[:, -1] = -U[:, -1]
        R_pc = U @ Vt
    t_pc = np.mean(t_acc, axis=0)
    camera = cam.model  # identity pose: world = camera frame
    return camera, replace(proj.model, rotation=R_pc, translation=t_pc)


def detect_scan_start(events: EventStream, cfg: SyncConfig, min_burst_events: int = 10) -> int:
    """Scan start from the sync burst: mean burst timestamp plus known offset.

    The burst is the first maximal run of events whose inter-event gaps stay
    below burst_duration / 10 and that contains at least ``min_burst_events``
    events.
    """
    t = np.sort(events.t)
    if len(t) == 0:
        raise SyncNotFoundError("empty event stream")
    gap_limit = max(cfg.burst_duration_us / 10.0, 1.0)
    breaks = np.where(np.diff(t) > gap_limit)[0]
    starts = np.concatenate([[0], breaks + 1])
    stops = np.concatenate([breaks + 1, [len(t)]])
    for lo, hi in zip(starts, stops):
        if hi - lo >= min_burst_events:
            mean = float(np.mean(t[lo:hi]))
            return int(np.floor(mean + 0.5)) + cfg.known_offset_us
    raise SyncNotFoundError(f"no run of >= {min_burst_events} dense events found")
