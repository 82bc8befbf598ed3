"""Correctness oracles the benchmark runs outside its timed regions.

* Neighbor sets: brute force over the whole support cloud for sampled
  queries. Ball query keeps every point with distance <= r (inclusive
  boundary); kNN keeps the k smallest distances with ties at the k-th
  distance going to the smallest support index. Both are compared as
  exact sorted index sets.
* Convolution: a dense per-pair evaluation of the paper's formula

      out_o(x) = norm(x) * sum_{y in N(x)} sum_c f_c(y) <kappa[c, o, :], P^T e(y - x)> + b_o

  for sampled query points of every convolution a forward pass ran.

Each check returns a list of mismatch messages; empty means it passed.
"""

import numpy as np

CONV_RTOL = 1e-8
CONV_ATOL = 1e-10


def site_clouds(site_name, clouds):
    """(query cloud, support cloud, pyramid level that sets the radius) of a
    named site, following the naming of `Encoder.prepare`."""
    kind = site_name.rstrip("0123456789")
    lvl = int(site_name[len(kind):])
    if kind == "self":
        return clouds[lvl], clouds[lvl], lvl
    if kind == "down":
        return clouds[lvl + 1], clouds[lvl], lvl + 1
    if kind == "up":
        return clouds[lvl], clouds[lvl + 1], lvl + 1
    if kind == "direct":
        return clouds[0], clouds[lvl], lvl
    raise ValueError(f"unknown site name {site_name!r}")


def brute_force_neighbors(query_point, support_positions, neighborhood, radius):
    d = np.linalg.norm(support_positions - query_point, axis=1)
    if neighborhood.kind == "ball_query":
        return np.flatnonzero(d <= radius)
    idx = np.arange(len(d))
    return np.sort(np.lexsort((idx, d))[:neighborhood.k])


def check_neighbors(prep, encoder_config, rng, queries_per_site):
    """Compare every site of a prepared sample with brute force on sampled
    query points."""
    nb = encoder_config.neighborhood
    errors = []
    for name, site in sorted(prep.sites.items()):
        query, support, lvl = site_clouds(name, prep.clouds)
        radius = nb.scale * encoder_config.level_cell(lvl)
        nl = site.neighbors
        if nl.num_queries != len(query):
            errors.append(f"site {name}: {nl.num_queries} queries for {len(query)} points")
            continue
        picks = rng.choice(len(query), size=min(queries_per_site, len(query)), replace=False)
        for qi in np.sort(picks):
            want = brute_force_neighbors(query.positions[qi], support.positions, nb, radius)
            got = nl.neighbors(qi)
            if not np.array_equal(got, want):
                extra = np.setdiff1d(got, want)[:4].tolist()
                missing = np.setdiff1d(want, got)[:4].tolist()
                errors.append(
                    f"site {name} query {qi}: {len(got)} neighbors, oracle {len(want)}; "
                    f"extra {extra} missing {missing}"
                )
    return errors


class ConvRecorder:
    """Records (module, prep, input features, output) of every ConvModule
    forward while installed."""

    def __init__(self, conv_module_cls):
        self.cls = conv_module_cls
        self.calls = []
        self._original = None

    def __enter__(self):
        self._original = self.cls.__dict__["forward"]
        original = self._original
        calls = self.calls

        def forward(module, prep, features, *args, **kwargs):
            out = original(module, prep, features, *args, **kwargs)
            calls.append((module, prep, np.array(features, copy=True), np.array(out, copy=True)))
            return out

        self.cls.forward = forward
        return self

    def __exit__(self, *exc):
        self.cls.forward = self._original
        return False


def dense_conv(layer, query_point, support_positions, neighbor_idx, features):
    """The paper's formula for one query point: every (pair, channel) term
    is formed and summed directly, without the segment sums and the
    reordered contraction the program uses."""
    out = np.zeros(layer.kernel.shape[1])
    if len(neighbor_idx):
        e = layer.embedding.embed(support_positions[neighbor_idx] - query_point)
        g = e @ layer.projection                      # (T, E_c)
        out = np.einsum("tc,coe,te->o", features[neighbor_idx], layer.kernel, g)
        if layer.normalize == "mean":
            out = out / len(neighbor_idx)
    if layer.bias is not None:
        out = out + layer.bias
    return out


def check_conv(calls, rng, queries_per_call):
    errors = []
    for module, prep, features, out in calls:
        name = module.site_name
        query, support, _ = site_clouds(name, prep.clouds)
        nl = prep.sites[name].neighbors
        if out.shape != (len(query), module.layer.kernel.shape[1]):
            errors.append(f"conv {name}: output shape {out.shape}")
            continue
        picks = rng.choice(len(query), size=min(queries_per_call, len(query)), replace=False)
        for qi in np.sort(picks):
            want = dense_conv(module.layer, query.positions[qi], support.positions,
                              nl.neighbors(qi), features)
            if not np.allclose(out[qi], want, rtol=CONV_RTOL, atol=CONV_ATOL):
                gap = float(np.max(np.abs(out[qi] - want)))
                errors.append(f"conv {name} query {qi}: max |out - dense| = {gap:.3e}")
    return errors
