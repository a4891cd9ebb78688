"""Dual-scan laser simulator: ray-trace a scene, synthesize the event stream.

The projector sweeps a vertical laser line across its columns, rests, then a
horizontal line across its rows. A surface point with continuous projector
coordinates (x_P, y_P) is crossed by the vertical line at
``scan_start + x_P * sweep_duration / steps`` and emits a +1 event at its
camera pixel (and a -1 event one step later when the line has moved on);
analogously for the horizontal sweep. Timestamps are rounded to integer
microseconds, which is the only timing quantization: projector *steps* are a
decoding concept, recovered by binning timestamps.

Light paths, each traced from one device's pixel grid bounce by bounce
(``_light_paths``):

* bounce 1: laser -> diffuse/shiny point -> camera (direct),
* bounce 2: laser -> diffuse point Q -> specular/shiny surface -> camera;
  the event appears at the specular surface's camera pixel at Q's sweep
  crossing times,
* camera-side bounces 3-4 and specular-first paths (traced from the
  projector: laser -> surface that mirrors -> ... -> surface the camera
  sees) only when ``generate_higher_bounces`` is set, to exercise rejection
  behavior; a raster scan has bounce 1 only.
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
    rows_matmul,
)
from .scene import NoiseModel, Plane, ScanSchedule, SceneObject, Sphere

HIT_EPS_MM = 1e-6
ON_EPIPOLAR_TAU_PX = 2.0
MAX_MIRROR_BOUNCES = 3


def _intersect_plane(origins, dirs, plane: Plane):
    denom = rows_matmul(dirs, plane.normal)
    safe = np.where(np.abs(denom) < 1e-12, 1.0, denom)
    # one (N, 3) buffer: plane.point - origins, then the hit relative to plane.point
    local = np.subtract(plane.point, origins)
    t = rows_matmul(local, plane.normal) / safe
    hit = (np.abs(denom) >= 1e-12) & (t > HIT_EPS_MM)
    np.multiply(t[:, None], dirs, out=local)
    local += origins
    local -= plane.point
    u_axis, v_axis = plane.basis
    inside = np.abs(rows_matmul(local, u_axis)) <= plane.extent[0]
    inside &= np.abs(rows_matmul(local, v_axis)) <= plane.extent[1]
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

    Normals are unit length and oriented against the incoming ray. Every ray
    is tested against every object.
    """
    return _cast(origins, dirs, objects, [slice(None)] * len(objects))


def _cast(origins, dirs, objects: list[SceneObject], candidates: list):
    """``intersect_ray_batch`` testing ``objects[i]`` only against the rays ``candidates[i]`` selects.

    Each entry of ``candidates`` is ``slice(None)`` (every ray) or sorted row
    indices; a ray outside an object's candidates is taken to miss it.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    best_normal = np.zeros((n, 3))
    best_obj = np.full(n, -1, dtype=np.int32)
    for i, (obj, rows) in enumerate(zip(objects, candidates)):
        if isinstance(obj.shape, Plane):
            t, normals = _intersect_plane(origins[rows], dirs[rows], obj.shape)
        elif isinstance(obj.shape, Sphere):
            t, normals = _intersect_sphere(origins[rows], dirs[rows], obj.shape)
        else:
            raise TypeError(f"unknown shape {type(obj.shape).__name__}")
        closer = t < best_t[rows]
        for best, new, where in ((best_t, t, closer), (best_normal, normals, closer[:, None]), (best_obj, i, closer)):
            # a view of ``best`` for a slice, a copy for row indices: written back either way
            part = best[rows]
            np.copyto(part, new, where=where)
            best[rows] = part
    flip = np.sum(best_normal * dirs, axis=1) > 0
    np.negative(best_normal, out=best_normal, where=flip[:, None])
    return best_t, best_normal, best_obj


def _box_corners(shape) -> np.ndarray:
    """Corners of a convex box that holds ``shape``: a plane's rectangle, a sphere's axis-aligned cube."""
    signs = (-1.0, 1.0)
    if isinstance(shape, Plane):
        (eu, ev), (u_axis, v_axis) = shape.extent, shape.basis
        return np.array([shape.point + a * eu * u_axis + b * ev * v_axis for a in signs for b in signs])
    return np.array([shape.center + shape.radius * np.array([a, b, c]) for a in signs for b in signs for c in signs])


def _candidates(model: PinholeModel, pixels: np.ndarray, objects: list[SceneObject]) -> list:
    """Per object, the rows of ``pixels`` whose ray from ``model``'s centre can meet it (``_cast``'s candidates).

    A ray meets an object only at a point that projects to the ray's pixel,
    so it can meet the object only inside the pixel rectangle that bounds
    the object's box corners. One pixel of margin covers the camera side's
    rounding to the pixel centre in ``_line_of_sight`` (half a pixel). Every
    ray stays a candidate where the corners do not bound the projection: a
    corner not in front of the device, or radial distortion (``k1 != 0``).
    A lone candidate row gets a neighbour, because numpy multiplies a single
    row with another kernel than a block of rows (``geometry.rows_matmul``).
    """
    if model.k1 != 0:
        return [slice(None)] * len(objects)
    margin = 1.0  # px
    x, y = pixels[:, 0], pixels[:, 1]
    out = []
    for obj in objects:
        corner_px, in_front = project_points(model, _box_corners(obj.shape))
        if not np.all(in_front):
            out.append(slice(None))
            continue
        (x0, y0), (x1, y1) = corner_px.min(axis=0) - margin, corner_px.max(axis=0) + margin
        rows = np.flatnonzero((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
        if len(rows) == len(pixels):
            out.append(slice(None))
        elif len(rows) == 1 and len(pixels) > 1:
            first = min(rows[0], len(pixels) - 2)
            out.append(np.array([first, first + 1]))
        else:
            out.append(rows)
    return out


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
        at = raster_step if sweep == SWEEP_RASTER else positions
        t_on, t_off = step_time(sched, sweep, at), step_time(sched, sweep, at + 1)
        if sweep == SWEEP_RASTER:
            step = raster_step.astype(np.int32)
        else:
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
    """Cast one ray per pixel of ``model``: (pixels, unit rays) + their nearest hits (t, normals, objects).

    Each object is tested only against the rays that can meet it
    (``_candidates``). ``_pixel_grid`` is its own function so its temporaries
    are gone before the cast.
    """
    pixels = _pixel_grid(model)
    dirs = pixel_directions(model, pixels)
    candidates = _candidates(model, pixels, objects)
    return (pixels, dirs) + _cast(np.broadcast_to(model.center, dirs.shape), dirs, objects, candidates)


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
        candidates = _candidates(model, px[ok], objects)
        center = model.center
        diff = points[ok] - center
        dist = np.linalg.norm(diff, axis=1)
        dirs = diff / dist[:, None]
        t, _, _ = _cast(np.broadcast_to(center, dirs.shape), dirs, objects, candidates)
        ok[ok] = np.abs(t - dist) <= 1e-6 * dist + 1e-9
    return px, ok


def _light_paths(objects, source: PinholeModel, device: PinholeModel, *, snap: bool, bounces: range):
    """Cast ``source``'s pixel grid (``_grid_hits``) and follow its rays bounce by bounce.

    Bounce 1 is each ray's first hit. Each later bounce reflects the rays off
    the surface they last met: after bounce 1 any surface that mirrors (shiny
    ones included), after that only a pure mirror. For each bounce in
    ``bounces`` it yields (bounce, rows, grid pixels, first objects, landing
    points, device pixels, landed objects) for the rays that land on a
    scattering surface which ``device`` sees (see ``_line_of_sight``);
    ``rows`` index the grid, in its order, and the grid pixels and first
    objects (each ray's bounce-1 object) are those of ``rows``.

    A bounce's reflected rays are built before its sight test, so the whole
    grid's rays are let go before bounce 1's occlusion cast; only the pixels
    and first objects, which label the paths, are kept.
    """
    scatters, mirrors = _material_masks(objects)
    pixels, dirs, t, normals, first = _grid_hits(source, objects)
    origins, rows, obj = np.broadcast_to(source.center, dirs.shape), np.arange(len(dirs)), first
    for bounce in range(1, bounces.stop):
        if bounce > 1:
            if not len(rows):
                return
            t, normals, obj = intersect_ray_batch(origins, dirs, objects)
        land = scatters[obj]
        landing = None
        if bounce in bounces and np.any(land):
            landing = rows[land], origins[land] + t[land, None] * dirs[land], obj[land]
        go_on = mirrors[obj] if bounce == 1 else mirrors[obj] & ~scatters[obj]
        points = origins[go_on] + t[go_on, None] * dirs[go_on]
        dirs = reflect_direction(dirs[go_on], normals[go_on])
        origins, rows = points + dirs * HIT_EPS_MM, rows[go_on]
        del t, normals, points  # bounce 1's: the grid's, let go before its occlusion cast
        if landing is not None:
            landed_rows, X, landed = landing
            px, seen = _line_of_sight(device, X, objects, snap=snap)
            landed_rows = landed_rows[seen]
            yield bounce, landed_rows, pixels[landed_rows], first[landed_rows], X[seen], px[seen], landed[seen]


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
    F = fundamental_from_models(camera, projector)
    emitter = _Emitter(schedule, [o.label for o in objects])
    warnings: list[str] = []
    counts: dict = {"direct_pairs": 0, "two_bounce_pairs": 0, "higher_bounce_pairs": 0}

    # (from the camera?, bounces) per traced grid: the light the camera sees,
    # then, on request, specular-first paths (rejection fodder)
    if mode == "raster":
        # Explicit point raster: one projector pixel at a time, each held for
        # one step, in pixel order (all columns of row 0, then row 1, ...);
        # total scan time steps^2 * step_us versus 2 * steps * step_us.
        sweeps, sides = [SWEEP_RASTER], [(False, range(1, 2))]
        scan_span = int(round(schedule.steps_per_sweep**2 * schedule.step_us))
    else:
        sweeps = [SWEEP_VERTICAL] if mode == "single" else [SWEEP_VERTICAL, SWEEP_HORIZONTAL]
        last = 1 + (MAX_MIRROR_BOUNCES if generate_higher_bounces else 1)
        sides = [(True, range(1, last + 1))]
        if generate_higher_bounces:
            sides.append((False, range(2, last + 1)))
        scan_span = schedule.total_us(len(sweeps))

    for from_camera, bounces in sides:
        source, device = (camera, projector) if from_camera else (projector, camera)
        traced = _light_paths(objects, source, device, snap=not from_camera, bounces=bounces)
        for bounce, rows, grid_px, first, X, px, landed in traced:
            # the camera pixel, and the object seen there, come from the camera's side
            if from_camera:
                cam_px, label, pp = grid_px, first, px
            else:
                cam_px, label, pp = px, landed, grid_px
            on_epi = np.zeros(len(rows), dtype=bool) if bounce == 1 else epipolar_distances(F, pp, cam_px) <= ON_EPIPOLAR_TAU_PX
            count = "direct" if bounce == 1 else "two_bounce" if bounce == 2 and from_camera else "higher_bounce"
            counts[f"{count}_pairs"] += len(rows) * len(sweeps)
            path = emitter.add_paths(bounce, X, label, pp, on_epi)
            for sweep in sweeps:
                pos = pp[:, 1] if sweep == SWEEP_HORIZONTAL else pp[:, 0]
                emitter.emit(sweep, cam_px, pos, path, raster_step=rows if sweep == SWEEP_RASTER else None)

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
