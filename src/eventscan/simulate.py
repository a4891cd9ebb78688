"""Dual-scan laser simulator: ray-trace a scene, synthesize the event stream.

The projector sweeps a vertical laser line across its columns, rests, then a
horizontal line across its rows. A surface point with continuous projector
coordinates (x_P, y_P) is crossed by the vertical line at
``scan_start + x_P * sweep_duration / steps`` and emits a +1 event at its
camera pixel (and a -1 event one step later when the line has moved on);
analogously for the horizontal sweep. Timestamps are rounded to integer
microseconds, which is the only timing quantization: projector *steps* are a
decoding concept, recovered by binning timestamps.

Reflection paths handled per camera pixel:

* bounce 1: laser -> diffuse/shiny point -> camera (direct),
* bounce 2: laser -> diffuse point Q -> specular/shiny surface -> camera;
  the event appears at the specular surface's camera pixel at Q's sweep
  crossing times,
* bounce >= 3 and specular-first paths are generated only when
  ``generate_higher_bounces`` is set, to exercise rejection behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .events import SWEEP_HORIZONTAL, SWEEP_RASTER, SWEEP_VERTICAL, UNANNOTATED, EventStream, GroundTruth, step_time
from .geometry import (
    PinholeModel,
    epipolar_distances,
    fundamental_from_models,
    pixel_directions,
    project_points,
    reflect_direction,
)
from .scene import NoiseModel, Plane, ScanSchedule, SceneObject, Sphere

HIT_EPS_MM = 1e-6
ON_EPIPOLAR_TAU_PX = 2.0
MAX_MIRROR_BOUNCES = 3


def _intersect_plane(origins, dirs, plane: Plane):
    denom = dirs @ plane.normal
    safe = np.where(np.abs(denom) < 1e-12, 1.0, denom)
    # one (N, 3) buffer: plane.point - origins, then the hit relative to plane.point
    local = np.subtract(plane.point, origins)
    t = (local @ plane.normal) / safe
    hit = (np.abs(denom) >= 1e-12) & (t > HIT_EPS_MM)
    np.multiply(t[:, None], dirs, out=local)
    local += origins
    local -= plane.point
    u_axis, v_axis = plane.basis
    inside = (np.abs(local @ u_axis) <= plane.extent[0]) & (np.abs(local @ v_axis) <= plane.extent[1])
    hit &= inside
    t = np.where(hit, t, np.inf)
    normals = np.broadcast_to(plane.normal, dirs.shape)
    return t, normals


def _intersect_sphere(origins, dirs, sphere: Sphere):
    oc = origins - sphere.center
    b = np.sum(dirs * oc, axis=1)
    c = np.sum(oc * oc, axis=1) - sphere.radius**2
    disc = b * b - c
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near > HIT_EPS_MM, t_near, np.where(t_far > HIT_EPS_MM, t_far, np.inf))
    t = np.where(ok, t, np.inf)
    finite = np.isfinite(t)
    hitp = origins + np.where(finite, t, 0.0)[:, None] * dirs
    normals = np.where(finite[:, None], (hitp - sphere.center) / sphere.radius, 0.0)
    return t, normals


def intersect_ray_batch(origins: np.ndarray, dirs: np.ndarray, objects: list[SceneObject]):
    """Nearest hit per ray. Returns (t, normals, obj_index) with inf / -1 on miss.

    Normals are unit length and oriented against the incoming ray.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    best_normal = np.zeros((n, 3))
    best_obj = np.full(n, -1, dtype=np.int32)
    for i, obj in enumerate(objects):
        if isinstance(obj.shape, Plane):
            t, normals = _intersect_plane(origins, dirs, obj.shape)
        elif isinstance(obj.shape, Sphere):
            t, normals = _intersect_sphere(origins, dirs, obj.shape)
        else:
            raise TypeError(f"unknown shape {type(obj.shape).__name__}")
        closer = t < best_t
        np.copyto(best_t, t, where=closer)
        np.copyto(best_normal, normals, where=closer[:, None])
        best_obj[closer] = i
    flip = np.sum(best_normal * dirs, axis=1) > 0
    np.negative(best_normal, out=best_normal, where=flip[:, None])
    return best_t, best_normal, best_obj


@dataclass
class SimulationResult:
    events: EventStream
    ground_truth: GroundTruth
    counts: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    scan_span_us: int = 0


class _Emitter:
    """Accumulates light paths, each annotated once, and their +1/-1 event pairs."""

    def __init__(self, schedule: ScanSchedule, labels: list[str]):
        self.schedule = schedule
        self.labels = labels
        self.n_paths = 0
        self.paths: dict[str, list] = {name: [] for name in UNANNOTATED}
        self.events: dict[str, list] = {name: [] for name in ("t", "x", "y", "polarity", "path", "sweep", "step")}

    def add_paths(self, bounce, surface, label_idx, proj_pixel, on_epi) -> np.ndarray:
        """Annotate ``len(label_idx)`` new light paths; returns their ids."""
        n = len(label_idx)
        columns = {
            "bounce": np.full(n, bounce, dtype=np.int16),
            "surface_point": surface,
            "object_label": label_idx,
            "projector_pixel": proj_pixel,
            "on_epipolar": on_epi,
        }
        for name, col in columns.items():
            self.paths[name].append(col)
        self.n_paths += n
        return np.arange(self.n_paths - n, self.n_paths, dtype=np.int32)

    def emit(self, sweep, pixels, positions, path, raster_step=None):
        """The ON and OFF event of each of ``path`` in one sweep (or the raster)."""
        n = len(positions)
        if n == 0:
            return
        sched = self.schedule
        if sweep == SWEEP_RASTER:
            t_on = step_time(sched, sweep, raster_step)
            t_off = step_time(sched, sweep, raster_step + 1)
            step = raster_step.astype(np.int32)
        else:
            t_on = sched.crossing_time(sweep, positions)
            t_off = sched.crossing_time(sweep, positions + 1.0)
            start = sched.sweep_start(sweep)
            step = np.floor((t_on - start) * sched.steps_per_sweep / sched.sweep_duration_us).astype(np.int32)
            step = np.clip(step, 0, sched.steps_per_sweep - 1)
        shared = {
            "x": pixels[:, 0].astype(np.int32),
            "y": pixels[:, 1].astype(np.int32),
            "path": path,
            "sweep": np.full(n, sweep, dtype=np.int8),
            "step": step,
        }
        for t_ev, pol in ((t_on, 1), (t_off, -1)):
            self.events["t"].append(t_ev)
            self.events["polarity"].append(np.full(n, pol, dtype=np.int8))
            for name, col in shared.items():
                self.events[name].append(col)

    def result(self) -> tuple[EventStream, GroundTruth]:
        def drain(parts):
            # concatenate and let go of the parts, one column at a time
            out = np.concatenate(parts) if parts else np.zeros(0)
            parts.clear()
            return out

        ev = {name: drain(parts) for name, parts in self.events.items()}
        paths = {name: drain(parts) for name, parts in self.paths.items()}
        stream = EventStream(ev["t"], ev["x"], ev["y"], ev["polarity"])
        return stream, GroundTruth(**paths, path=ev["path"], sweep=ev["sweep"], step=ev["step"], labels=tuple(self.labels))


def _pixel_grid(model: PinholeModel):
    """Every pixel of ``model``, row-major (x fastest), as float (N, 2)."""
    xs, ys = np.meshgrid(np.arange(model.width), np.arange(model.height))
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def _grid_hits(model: PinholeModel, objects: list[SceneObject]):
    """Cast one ray per pixel of ``model``: (pixels, unit rays) + ``intersect_ray_batch``'s hits.

    ``_pixel_grid`` is its own function so its temporaries are gone before the cast.
    """
    pixels = _pixel_grid(model)
    dirs = pixel_directions(model, pixels)
    return (pixels, dirs) + intersect_ray_batch(np.broadcast_to(model.center, dirs.shape), dirs, objects)


def _material_masks(objects: list[SceneObject]):
    """Per object, whether it scatters and whether it mirrors; a last False entry is read by index -1 (a miss)."""
    scatters = np.array([o.material.scatters for o in objects] + [False])
    mirrors = np.array([o.material.mirrors for o in objects] + [False])
    return scatters, mirrors


def _line_of_sight(model: PinholeModel, points: np.ndarray, objects: list[SceneObject], *, snap: bool):
    """Pixel of each point in ``model`` and whether the device sees it.

    A point is seen when it lies in front of the device, its pixel lies
    within [0, size - 1] on both axes and nothing occludes the straight line
    from the device's centre. The projector keeps the continuous pixel, its
    sweep position; the camera (``snap``) rounds to the integer pixel centre
    first, so that pixel is what must lie inside the image.
    """
    px, in_front = project_points(model, points)
    if snap:
        px = np.floor(px + 0.5).astype(np.int64)
    ok = in_front & (px[:, 0] >= 0) & (px[:, 0] <= model.width - 1) & (px[:, 1] >= 0) & (px[:, 1] <= model.height - 1)
    if np.any(ok):
        center = model.center
        diff = points[ok] - center
        dist = np.linalg.norm(diff, axis=1)
        dirs = diff / dist[:, None]
        t, _, _ = intersect_ray_batch(np.broadcast_to(center, dirs.shape), dirs, objects)
        visible = np.abs(t - dist) <= 1e-6 * dist + 1e-9
        sub = np.zeros(ok.sum(), dtype=bool)
        sub[visible] = True
        ok[np.where(ok)[0]] = sub
    return px, ok


def _mirror_chains(objects, points, dirs, normals, device: PinholeModel, *, snap: bool, steps: int):
    """Follow rays that met a mirror at ``points`` through up to ``steps`` reflections.

    Each step reflects the rays, intersects them with the scene and yields
    (rows, landing points, device pixels, landed objects, bounce) for the
    rays that land on a scattering surface which ``device`` sees (see
    ``_line_of_sight``); ``rows`` index the starting rays. Rays that land on
    a pure mirror carry on to the next step. The first step yields bounce 2.
    """
    scatters, mirrors = _material_masks(objects)
    pure_mirrors = mirrors & ~scatters
    rows = np.arange(len(points))
    for bounce in range(2, 2 + steps):
        if len(rows) == 0:
            return
        rd = reflect_direction(dirs, normals)
        ro = points + rd * HIT_EPS_MM
        t, normals, obj = intersect_ray_batch(ro, rd, objects)
        land = scatters[obj]
        if np.any(land):
            X = ro[land] + t[land, None] * rd[land]
            px, seen = _line_of_sight(device, X, objects, snap=snap)
            yield rows[land][seen], X[seen], px[seen], obj[land][seen], bounce
        chain = pure_mirrors[obj]
        points = ro[chain] + t[chain, None] * rd[chain]
        dirs, normals, rows = rd[chain], normals[chain], rows[chain]


def _apply_noise(stream: EventStream, gt: GroundTruth, noise: NoiseModel, camera: PinholeModel, span):
    rng = np.random.default_rng(noise.seed)
    counts = {"dropped": 0, "spurious": 0}
    t = stream.t.astype(np.float64)
    if noise.timestamp_jitter_sigma_us > 0:
        t = t + rng.normal(0.0, noise.timestamp_jitter_sigma_us, size=len(t))
    # timestamps are unsigned microsecond counters
    t = np.maximum(np.floor(t + 0.5), 0.0)
    if not np.all(t < 2.0**63):
        sigma = noise.timestamp_jitter_sigma_us
        raise ValueError(f"timestamp jitter {sigma} us puts event times beyond the int64 microsecond range")
    t = t.astype(np.int64)
    keep = np.ones(len(t), dtype=bool)
    if noise.drop_probability > 0:
        keep = rng.random(len(t)) >= noise.drop_probability
        counts["dropped"] = int((~keep).sum())
    stream = EventStream(t[keep], stream.x[keep], stream.y[keep], stream.polarity[keep])
    gt = gt.take(keep)
    if noise.spurious_rate > 0:
        t0, t1 = span
        expected = noise.spurious_rate * max(t1 - t0, 1) * (camera.width * camera.height / 1e6)
        n_spur = int(rng.poisson(expected))
        counts["spurious"] = n_spur
        if n_spur:
            ts = rng.integers(t0, t1 + 1, size=n_spur)
            xs = rng.integers(0, camera.width, size=n_spur)
            ys = rng.integers(0, camera.height, size=n_spur)
            ps = np.where(rng.random(n_spur) < 0.5, -1, 1).astype(np.int8)
            stream = EventStream(
                np.concatenate([stream.t, ts]),
                np.concatenate([stream.x, xs]),
                np.concatenate([stream.y, ys]),
                np.concatenate([stream.polarity, ps]),
            )
            # spurious events belong to no path and no projector step
            none = np.full(n_spur, -1)
            gt = replace(
                gt,
                path=np.concatenate([gt.path, none]),
                sweep=np.concatenate([gt.sweep, none]),
                step=np.concatenate([gt.step, none]),
            )
    return stream, gt, counts


def check_pixelation(projector: PinholeModel, schedule: ScanSchedule) -> None:
    """ValueError unless the projector is ``steps_per_sweep`` pixels square.

    The simulator identifies sweep steps with projector pixels: the projector
    is pixelated by its timing bins.
    """
    steps = schedule.steps_per_sweep
    if projector.width != steps or projector.height != steps:
        raise ValueError(f"steps {steps} must equal the projector pixelation {projector.width}x{projector.height}")


def simulate_scan(
    objects: list[SceneObject],
    camera: PinholeModel,
    projector: PinholeModel,
    schedule: ScanSchedule,
    noise: NoiseModel | None = None,
    *,
    mode: str = "dual",
    generate_higher_bounces: bool = False,
) -> SimulationResult:
    """Trace the scan and return the sorted event stream plus ground truth.

    ``mode`` is "dual" (vertical then horizontal sweep), "single" (vertical
    sweep only, for diffuse-only operation) or "raster" (explicit point
    raster over all projector pixels; direct channel only, used to compare
    scan time against dual scanning).
    """
    if mode not in ("dual", "single", "raster"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if not objects:
        raise ValueError("scene is empty")
    check_pixelation(projector, schedule)
    labels = [o.label for o in objects]
    F = fundamental_from_models(camera, projector)
    emitter = _Emitter(schedule, labels)
    warnings: list[str] = []
    counts: dict = {"direct_pairs": 0, "two_bounce_pairs": 0, "higher_bounce_pairs": 0}

    sweeps = [SWEEP_VERTICAL] if mode == "single" else [SWEEP_VERTICAL, SWEEP_HORIZONTAL]

    def emit_pairs(count, cam_px, pp, bounce, points, label, on_epi):
        counts[count] += len(pp) * len(sweeps)
        path = emitter.add_paths(bounce, points, label, pp, on_epi)
        for sweep in sweeps:
            pos = pp[:, 0] if sweep == SWEEP_VERTICAL else pp[:, 1]
            emitter.emit(sweep, cam_px, pos, path)

    scatters, mirrors = _material_masks(objects)
    if mode in ("dual", "single"):
        pixels, dirs, t_hit, normals, obj_idx = _grid_hits(camera, objects)

        # Direct channel: diffuse/shiny points lit by the laser.
        direct = scatters[obj_idx]
        if np.any(direct):
            P = camera.center + t_hit[direct, None] * dirs[direct]
            pp, lit = _line_of_sight(projector, P, objects, snap=False)
            sel = np.where(direct)[0][lit]
            P, pp = P[lit], pp[lit]
            emit_pairs("direct_pairs", pixels[sel], pp, 1, P, obj_idx[sel], np.zeros(len(sel), dtype=bool))

        # Indirect channel: follow mirror reflections from specular pixels
        # back to the diffuse point that acts as the screen.
        start = np.where(mirrors[obj_idx])[0]
        chains = _mirror_chains(
            objects,
            camera.center + t_hit[start, None] * dirs[start],
            dirs[start],
            normals[start],
            projector,
            snap=False,
            steps=MAX_MIRROR_BOUNCES if generate_higher_bounces else 1,
        )
        for rows, Q, pp, _, bounce in chains:
            sel = start[rows]
            on_epi = epipolar_distances(F, pp, pixels[sel]) <= ON_EPIPOLAR_TAU_PX
            count = "two_bounce_pairs" if bounce == 2 else "higher_bounce_pairs"
            emit_pairs(count, pixels[sel], pp, bounce, Q, obj_idx[sel], on_epi)

        # Specular-first paths (the laser's mirror reflection off any surface
        # that mirrors, shiny ones included); rejection fodder, generated
        # only on request.
        if generate_higher_bounces:
            ppix, pdirs, t1, n1, o1 = _grid_hits(projector, objects)
            start = np.where(mirrors[o1])[0]
            chains = _mirror_chains(
                objects,
                projector.center + t1[start, None] * pdirs[start],
                pdirs[start],
                n1[start],
                camera,
                snap=True,
                steps=MAX_MIRROR_BOUNCES,
            )
            for rows, D, cam_px, landed, bounce in chains:
                pp = ppix[start[rows]]
                on_epi = epipolar_distances(F, pp, cam_px) <= ON_EPIPOLAR_TAU_PX
                emit_pairs("higher_bounce_pairs", cam_px, pp, bounce, D, landed, on_epi)
        scan_span = schedule.total_us(len(sweeps))
    else:
        # Explicit point raster: one projector pixel at a time, each held for
        # one step, in pixel order (all columns of row 0, then row 1, ...);
        # total scan time steps^2 * step_us versus 2 * steps * step_us.
        ppix, pdirs, t1, _, o1 = _grid_hits(projector, objects)
        landed = scatters[o1]
        D = projector.center + t1[landed, None] * pdirs[landed]
        cam_pix, seen = _line_of_sight(camera, D, objects, snap=True)
        sel = np.where(landed)[0][seen]
        if len(sel):
            counts["direct_pairs"] += len(sel)
            path = emitter.add_paths(1, D[seen], o1[sel], ppix[sel], np.zeros(len(sel), dtype=bool))
            emitter.emit(SWEEP_RASTER, cam_pix[seen], ppix[sel][:, 0], path, raster_step=sel)
        scan_span = int(round(schedule.steps_per_sweep**2 * schedule.step_us))

    stream, gt = emitter.result()
    if len(stream) == 0:
        warnings.append("no surface was illuminated; event stream is empty")

    if noise is not None and not noise.silent:
        span = (schedule.scan_start_us, schedule.scan_start_us + scan_span)
        stream, gt, noise_counts = _apply_noise(stream, gt, noise, camera, span)
        counts.update(noise_counts)

    order = stream.sort_order()
    stream = stream.take(order)
    gt = gt.take(order)
    return SimulationResult(stream, gt, counts, warnings, scan_span)
