"""The batched rasterizer and line drawer against their per-item loops.

The loops below are the rasterizer and ``Scene._draw_lines`` as they were
before they were vectorized: one triangle (or segment) at a time, a strict
``<`` depth test, first triangle wins ties.  They stay here as the oracle;
every scene must come out with byte-identical color and depth buffers.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import contour_grid
from repro.grid import CellArray, PolyData
from repro.render import Camera, Scene
from repro.render import rasterizer
from repro.render.rasterizer import Framebuffer, rasterize_mesh

from tests.conftest import make_2d_grid


def loop_rasterize_mesh(fb, camera, triangles, color=(0.2, 0.7, 0.9),
                        light_dir=(0.4, -0.35, 0.85), colors=None):
    tris = np.asarray(triangles, dtype=np.float64)
    if tris.shape[0] == 0:
        return
    light = np.asarray(light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    base = np.asarray(color, dtype=np.float64)

    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-20
    normals[valid] = normals[valid] / norms[valid, None]
    if colors is not None:
        colors = np.asarray(colors, dtype=np.float64)
        lambert = np.abs(normals @ light)
        shades = (0.25 + 0.75 * lambert)[:, None] * colors
    else:
        lambert = np.abs(normals @ light)
        shades = (0.25 + 0.75 * lambert)[:, None] * base[None, :]

    flat = tris.reshape(-1, 3)
    xy, depth = camera.project(flat, fb.width, fb.height)
    xy = xy.reshape(-1, 3, 2)
    depth = depth.reshape(-1, 3)

    in_front = (depth > camera.near).all(axis=1) & (depth < camera.far).all(axis=1)
    xs = xy[:, :, 0]
    ys = xy[:, :, 1]
    on_screen = (
        (xs.max(axis=1) >= 0)
        & (xs.min(axis=1) <= fb.width - 1)
        & (ys.max(axis=1) >= 0)
        & (ys.min(axis=1) <= fb.height - 1)
    )
    keep = in_front & on_screen & valid
    idx = np.nonzero(keep)[0]

    width, height = fb.width, fb.height
    colorbuf = fb.color
    depthbuf = fb.depth

    for t in idx:
        v = xy[t]
        z = depth[t]
        x0 = int(max(np.floor(v[:, 0].min()), 0))
        x1 = int(min(np.ceil(v[:, 0].max()), width - 1))
        y0 = int(max(np.floor(v[:, 1].min()), 0))
        y1 = int(min(np.ceil(v[:, 1].max()), height - 1))
        if x1 < x0 or y1 < y0:
            continue
        px = np.arange(x0, x1 + 1)[None, :] + 0.0
        py = np.arange(y0, y1 + 1)[:, None] + 0.0
        d = (v[1, 1] - v[2, 1]) * (v[0, 0] - v[2, 0]) + (
            v[2, 0] - v[1, 0]
        ) * (v[0, 1] - v[2, 1])
        if abs(d) < 1e-12:
            cx = int(round(v[:, 0].mean()))
            cy = int(round(v[:, 1].mean()))
            if 0 <= cx < width and 0 <= cy < height:
                zmid = z.mean()
                if zmid < depthbuf[cy, cx]:
                    depthbuf[cy, cx] = zmid
                    colorbuf[cy, cx] = shades[t]
            continue
        l0 = ((v[1, 1] - v[2, 1]) * (px - v[2, 0]) + (v[2, 0] - v[1, 0]) * (py - v[2, 1])) / d
        l1 = ((v[2, 1] - v[0, 1]) * (px - v[2, 0]) + (v[0, 0] - v[2, 0]) * (py - v[2, 1])) / d
        l2 = 1.0 - l0 - l1
        inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
        if not inside.any():
            continue
        pz = l0 * z[0] + l1 * z[1] + l2 * z[2]
        sub_depth = depthbuf[y0 : y1 + 1, x0 : x1 + 1]
        win = inside & (pz < sub_depth)
        if not win.any():
            continue
        sub_depth[win] = pz[win]
        colorbuf[y0 : y1 + 1, x0 : x1 + 1][win] = shades[t]


def loop_draw_lines(fb, camera, pd, color):
    segs = pd.segments()
    if not len(segs):
        return
    xy, depth = camera.project(pd.points, fb.width, fb.height)
    col = np.asarray(color, dtype=np.float64)
    for a, b in segs:
        if depth[a] <= camera.near or depth[b] <= camera.near:
            continue
        n = int(max(abs(xy[b, 0] - xy[a, 0]), abs(xy[b, 1] - xy[a, 1]))) + 1
        ts = np.linspace(0.0, 1.0, n)
        px = np.round(xy[a, 0] + ts * (xy[b, 0] - xy[a, 0])).astype(int)
        py = np.round(xy[a, 1] + ts * (xy[b, 1] - xy[a, 1])).astype(int)
        ok = (px >= 0) & (px < fb.width) & (py >= 0) & (py < fb.height)
        fb.color[py[ok], px[ok]] = col
        fb.depth[py[ok], px[ok]] = 0.0


def assert_same(fb_a, fb_b):
    assert fb_a.depth.tobytes() == fb_b.depth.tobytes()
    assert fb_a.color.tobytes() == fb_b.color.tobytes()


# The camera sits at z=10 looking down -z with near=1, far=15, so world z
# maps to depth 10 - z: z=9.5 is behind the near plane, z=12 behind the
# camera and z=-8 beyond the far plane.  Coordinates repeat from a small
# set so that shared edges, coplanar overlaps and exact ties are common.
CAMERA = Camera(position=(0.0, 0.0, 10.0), target=(0.0, 0.0, 0.0),
                up=(0.0, 1.0, 0.0), fov_degrees=30.0, near=1.0, far=15.0)
XY = st.sampled_from([-40.0, -3.0, -2.0, -1.25, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0, 2.75, 40.0])
Z = st.sampled_from([-8.0, -2.0, -1.0, 0.0, 0.0, 0.5, 2.0, 9.5, 12.0])
RGB = st.tuples(*[st.floats(0.0, 1.0)] * 3)


@st.composite
def soups(draw):
    """``(n, 3, 3)`` triangles mixing every case the z-test has to get right."""
    tris = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(
            ["free", "plane", "degenerate", "point", "repeat", "full-frame"]))
        if kind == "repeat" and tris:
            # The same triangle again (vertices rotated): equal depths.
            tri = tris[draw(st.integers(0, len(tris) - 1))]
            tris.append(np.roll(tri, draw(st.integers(0, 2)), axis=0))
            continue
        if kind == "full-frame":
            z = draw(Z)
            tris.append(np.array([[-60.0, -60.0, z], [60.0, -60.0, z], [0.0, 60.0, z]]))
            continue
        tri = np.array([[draw(XY), draw(XY), draw(Z)] for _ in range(3)])
        if kind == "plane":
            tri[:, 2] = tri[0, 2]  # parallel to the screen: coplanar overlaps
        elif kind == "degenerate":
            tri[2] = tri[0] + draw(st.sampled_from([0.5, 2.0, -1.0])) * (tri[1] - tri[0])
        elif kind == "point":
            tri[1] = tri[2] = tri[0]
        tris.append(tri)
    return np.array(tris, dtype=np.float64).reshape(-1, 3, 3)


@st.composite
def meshes(draw):
    tris = draw(soups())
    colors = None
    if draw(st.booleans()):
        colors = np.array([draw(RGB) for _ in range(len(tris))]).reshape(-1, 3)
    return tris, draw(RGB), colors


@settings(max_examples=300, deadline=None)
@given(
    scene=st.lists(meshes(), min_size=1, max_size=3),
    size=st.tuples(st.integers(1, 33), st.integers(1, 25)),
    budget=st.sampled_from([1, 5, 64, 1000, rasterizer.PIXEL_BUDGET]),
)
def test_batched_rasterizer_matches_the_triangle_loop(scene, size, budget):
    expected = Framebuffer(*size)
    actual = Framebuffer(*size)
    with mock.patch.object(rasterizer, "PIXEL_BUDGET", budget):
        for tris, color, colors in scene:  # later meshes share the depth buffer
            loop_rasterize_mesh(expected, CAMERA, tris, color=color, colors=colors)
            rasterize_mesh(actual, CAMERA, tris, color=color, colors=colors)
    assert_same(expected, actual)


def test_triangle_larger_than_the_pixel_budget():
    width, height = 320, 240
    assert width * height > rasterizer.PIXEL_BUDGET
    full = np.array([[[-60.0, -60.0, 0.0], [60.0, -60.0, 0.0], [0.0, 60.0, 0.0]],
                     [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]],
                     [[-60.0, -60.0, 0.0], [60.0, -60.0, 0.0], [0.0, 60.0, 0.0]]])
    colors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    expected = Framebuffer(width, height)
    actual = Framebuffer(width, height)
    loop_rasterize_mesh(expected, CAMERA, full, colors=colors)
    rasterize_mesh(actual, CAMERA, full, colors=colors)
    assert_same(expected, actual)
    assert np.isfinite(actual.depth).all()  # the whole frame was covered


def test_lines_match_the_segment_loop_on_a_2d_contour():
    pd = contour_grid(make_2d_grid(20, 16), "f", [-0.5, 0.0, 0.7])
    assert pd.lines.num_cells
    camera = Camera.fit_bounds(pd.bounds)
    expected = Framebuffer(96, 72)
    actual = Framebuffer(96, 72)
    loop_draw_lines(expected, camera, pd, (1.0, 1.0, 0.0))
    Scene._draw_lines(actual, camera, pd, (1.0, 1.0, 0.0))
    assert_same(expected, actual)
    assert (actual.depth == 0.0).sum() > 20


@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(st.tuples(XY, XY, Z), min_size=1, max_size=12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=16),
    size=st.tuples(st.integers(1, 33), st.integers(1, 25)),
)
def test_lines_match_the_segment_loop(points, pairs, size):
    pts = np.array(points, dtype=np.float64)
    segs = [(a % len(pts), b % len(pts)) for a, b in pairs]
    pd = PolyData(pts)
    pd.lines = CellArray.from_uniform(np.array(segs, dtype=np.int64).reshape(-1, 2))
    expected = Framebuffer(*size)
    actual = Framebuffer(*size)
    loop_draw_lines(expected, CAMERA, pd, (0.9, 0.1, 0.4))
    Scene._draw_lines(actual, CAMERA, pd, (0.9, 0.1, 0.4))
    assert_same(expected, actual)
