"""The dilation of a field profile, shared by the scaling tests."""

from zml.profiles import make_profile, piecewise_linear


def dilate(profile, c):
    """The field B mapped to c^2 B(c x), in the profile's own dimension:
    widths / c, values * c^2."""
    p = profile.params
    if profile.kind == "piecewise-linear":
        return piecewise_linear([(x / c, c * c * b) for x, b in p["points"]],
                                dimension=profile.dimension)
    widths = {name: v / c for name, v in p.items() if name != "B0"}
    return make_profile(profile.kind, profile.dimension, B0=c * c * p["B0"],
                        **widths)
