"""NumPy z-buffer rasterizer with flat Lambert shading.

Rasterizes a triangle soup into an RGB image: each triangle is projected,
shaded by the angle between its world-space normal and the light, then
scan-converted with barycentric coverage against a shared depth buffer.
There is no per-triangle Python loop: triangles are grouped by the shape
of their screen bounding box and each group is evaluated in broadcast
array passes, at most :data:`PIXEL_BUDGET` candidate pixels at a time.
The images are byte-identical to drawing the triangles one by one in
order with a strict ``<`` depth test; ``tests/render`` keeps that loop as
the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.render.camera import Camera

__all__ = ["rasterize_mesh", "Framebuffer"]

#: Most (triangle, pixel) candidates one rasterizer batch holds.  It bounds
#: the working set, however many or however large the triangles are.
PIXEL_BUDGET = 1 << 16


class Framebuffer:
    """An RGB color buffer plus a float depth buffer."""

    def __init__(self, width: int, height: int, background=(0.08, 0.09, 0.11)):
        if width < 1 or height < 1:
            raise ReproError(f"invalid framebuffer size {width}x{height}")
        self.width = width
        self.height = height
        self.color = np.empty((height, width, 3), dtype=np.float64)
        self.color[:] = np.asarray(background, dtype=np.float64)
        self.depth = np.full((height, width), np.inf)

    def image(self) -> np.ndarray:
        """The color buffer as float RGB in [0, 1]."""
        return np.clip(self.color, 0.0, 1.0)


def _flat_shades(tris: np.ndarray, color, light_dir, colors) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle shaded colors and which triangles have a normal at all.

    Flat two-sided Lambert shading with an ambient floor, from each
    triangle's world-space normal.
    """
    light = np.asarray(light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-20
    normals[valid] = normals[valid] / norms[valid, None]
    intensity = 0.25 + 0.75 * np.abs(normals @ light)
    if colors is None:
        return intensity[:, None] * np.asarray(color, dtype=np.float64)[None, :], valid
    colors = np.asarray(colors, dtype=np.float64)
    if colors.shape != (tris.shape[0], 3):
        raise ReproError(f"colors must be ({tris.shape[0]}, 3); got {colors.shape}")
    return intensity[:, None] * colors, valid


def rasterize_mesh(
    fb: Framebuffer,
    camera: Camera,
    triangles: np.ndarray,
    color=(0.2, 0.7, 0.9),
    light_dir=(0.4, -0.35, 0.85),
    colors: np.ndarray | None = None,
) -> None:
    """Rasterize a world-space triangle soup into ``fb``.

    Parameters
    ----------
    fb:
        Target framebuffer (depth-shared across calls, so multiple meshes
        composite correctly).
    camera:
        Projection camera.
    triangles:
        ``(n, 3, 3)`` world-space triangle array.
    color:
        Base RGB color in [0, 1] (used when ``colors`` is None).
    light_dir:
        World-space directional light (normalized internally).
    colors:
        Optional ``(n, 3)`` per-triangle base colors (scalar coloring).
    """
    tris = np.asarray(triangles, dtype=np.float64)
    if tris.ndim != 3 or tris.shape[1:] != (3, 3):
        raise ReproError(f"triangles must be (n, 3, 3); got {tris.shape}")
    if tris.shape[0] == 0:
        return
    shades, valid = _flat_shades(tris, color, light_dir, colors)
    xy, depth = camera.project(tris.reshape(-1, 3), fb.width, fb.height)
    xy = xy.reshape(-1, 3, 2)
    depth = depth.reshape(-1, 3)

    # Cull triangles behind the near plane or fully off-screen.  Column-wise
    # minimum/maximum equal min/max over the corner axis, and are much
    # cheaper than a reduction over a strided axis.
    lo = np.minimum(np.minimum(xy[:, 0], xy[:, 1]), xy[:, 2])
    hi = np.maximum(np.maximum(xy[:, 0], xy[:, 1]), xy[:, 2])
    in_front = (depth > camera.near).all(axis=1) & (depth < camera.far).all(axis=1)
    on_screen = (
        (hi[:, 0] >= 0)
        & (lo[:, 0] <= fb.width - 1)
        & (hi[:, 1] >= 0)
        & (lo[:, 1] <= fb.height - 1)
    )
    keep = in_front & on_screen & valid
    if keep.any():
        # Rebinding frees the full-size arrays before the scan starts.
        xy, depth, lo, hi, shades = xy[keep], depth[keep], lo[keep], hi[keep], shades[keep]
        _draw(fb, xy, depth, lo, hi, shades)


class _Winners:
    """Per-pixel z-test over batches of (pixel, depth, triangle) candidates.

    Equivalent to drawing the triangles one at a time with a strict
    ``<`` depth test: each pixel ends up with its candidate of least
    ``(depth, triangle)`` — the earliest triangle wins equal depths —
    provided that depth is strictly below the buffer's value before the
    call.  ``owner`` remembers which triangle of this call wrote each
    pixel (-1: none did), so batches may arrive in any triangle order.
    """

    def __init__(self, fb: Framebuffer, shades: np.ndarray):
        self.fb = fb
        self.shades = shades
        self.owner = np.full(fb.depth.shape, -1, dtype=np.int64)

    def commit(self, ys, xs, zs, ts) -> None:
        """Z-test one batch; within a pixel, candidates are in triangle order."""
        depthbuf = self.fb.depth
        current = depthbuf[ys, xs]
        beats = (zs < current) | ((zs == current) & (ts < self.owner[ys, xs]))
        ys, xs, zs, ts = ys[beats], xs[beats], zs[beats], ts[beats]
        if not len(zs):
            return
        # The stable sort keeps triangle order within a pixel, so the first
        # candidate at a pixel's least depth is its earliest triangle there.
        pixel = ys * self.fb.width + xs
        order = np.argsort(pixel, kind="stable")
        pixel = pixel[order]
        zs_sorted = zs[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = pixel[1:] != pixel[:-1]
        group = np.cumsum(first) - 1
        nearest = np.minimum.reduceat(zs_sorted, np.flatnonzero(first))
        best = np.flatnonzero(zs_sorted == nearest[group])
        lead = np.ones(len(best), dtype=bool)
        lead[1:] = group[best[1:]] != group[best[:-1]]
        win = order[best[lead]]
        ys, xs, ts = ys[win], xs[win], ts[win]
        depthbuf[ys, xs] = zs[win]
        self.fb.color[ys, xs] = self.shades[ts]
        self.owner[ys, xs] = ts


def _draw(fb: Framebuffer, xy: np.ndarray, depth: np.ndarray, lo: np.ndarray,
          hi: np.ndarray, shades: np.ndarray) -> None:
    """Scan-convert culled triangles, grouped by screen bounding-box shape.

    Every triangle of one ``h x w`` bounding-box shape is evaluated in one
    broadcast pass over its box, in pieces of at most
    :data:`PIXEL_BUDGET` candidates.  The barycentric and depth
    expressions keep the operand order of a per-triangle reference
    rasterizer, so every value rounds identically.
    """
    width, height = fb.width, fb.height
    x0 = np.maximum(np.floor(lo[:, 0]), 0).astype(np.int64)
    y0 = np.maximum(np.floor(lo[:, 1]), 0).astype(np.int64)
    w = np.minimum(np.ceil(hi[:, 0]), width - 1).astype(np.int64) - x0 + 1
    h = np.minimum(np.ceil(hi[:, 1]), height - 1).astype(np.int64) - y0 + 1
    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    # Edge coefficients: l0 = (a*fx + b*fy)/d, l1 = (c*fx + e*fy)/d.
    a = vy[:, 1] - vy[:, 2]
    b = vx[:, 2] - vx[:, 1]
    c = vy[:, 2] - vy[:, 0]
    e = vx[:, 0] - vx[:, 2]
    d = a * e + b * (vy[:, 0] - vy[:, 2])
    degenerate = np.abs(d) < 1e-12
    winners = _Winners(fb, shades)

    # Degenerate in screen space: a candidate at the pixel nearest the
    # centroid, at the mean depth.
    flat = np.flatnonzero(degenerate)
    cx = np.round(vx[flat].mean(axis=1)).astype(np.int64)
    cy = np.round(vy[flat].mean(axis=1)).astype(np.int64)
    on = (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
    flat, cx, cy = flat[on], cx[on], cy[on]
    zmid = depth[flat].mean(axis=1)
    for s in range(0, len(flat), PIXEL_BUDGET):
        piece = slice(s, s + PIXEL_BUDGET)
        winners.commit(cy[piece], cx[piece], zmid[piece], flat[piece])

    tris = np.flatnonzero(~degenerate)
    shape = h[tris] * (width + 1) + w[tris]
    order = np.argsort(shape, kind="stable")
    tris, shape = tris[order], shape[order]
    for group in np.split(tris, np.flatnonzero(np.diff(shape)) + 1):
        if not len(group):
            continue
        gh, gw = int(h[group[0]]), int(w[group[0]])
        rows = min(gh, max(1, PIXEL_BUDGET // gw))
        per = max(1, PIXEL_BUDGET // (rows * gw))
        for s in range(0, len(group), per):
            t = group[s : s + per]
            k = (t, None, None)  # per-triangle values, broadcast over the box
            px = x0[k] + np.arange(gw)
            fx = px - vx[:, 2][k]
            for r in range(0, gh, rows):
                py = y0[k] + np.arange(r, min(r + rows, gh))[:, None]
                fy = py - vy[:, 2][k]
                l0 = (a[k] * fx + b[k] * fy) / d[k]
                l1 = (c[k] * fx + e[k] * fy) / d[k]
                l2 = 1.0 - l0 - l1
                pz = l0 * depth[:, 0][k] + l1 * depth[:, 1][k] + l2 * depth[:, 2][k]
                inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
                winners.commit(
                    np.broadcast_to(py, pz.shape)[inside],
                    np.broadcast_to(px, pz.shape)[inside],
                    pz[inside],
                    np.broadcast_to(t[:, None, None], pz.shape)[inside],
                )
