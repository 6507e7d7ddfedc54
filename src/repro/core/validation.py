"""Input validation for the CSJ operator.

The CSJ definition (Section 3) imposes two structural constraints that
are enforced here before any algorithm runs:

* both communities share the same dimensionality ``d``;
* ``ceil(|A|/2) <= |B| <= |A|`` — otherwise the smaller community is at
  risk of being a near-subset of the larger and the similarity score is
  not meaningful.

The paper's convention is that ``B`` denotes the less-followed community
and ``A`` the more-followed one; :func:`orient_pair` re-orders arbitrary
inputs to that convention.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, SizeRatioError, ValidationError
from .types import Community

__all__ = [
    "check_dimensions",
    "check_size_ratio",
    "size_ratio_ok",
    "orient_pair",
    "validate_epsilon",
    "validate_pair",
]


def check_dimensions(community_b: Community, community_a: Community) -> None:
    """Raise :class:`DimensionMismatchError` unless both share ``d``."""
    if community_b.n_dims != community_a.n_dims:
        raise DimensionMismatchError(community_b.n_dims, community_a.n_dims)


def size_ratio_ok(n_first: int, n_second: int) -> bool:
    """Whether two community sizes, in either order, may be joined.

    The size-ratio rule ``ceil(|A|/2) <= |B|`` of the CSJ definition,
    with ``B`` the smaller of the two.
    """
    small, large = sorted((n_first, n_second))
    return small * 2 >= large


def check_size_ratio(community_b: Community, community_a: Community) -> None:
    """Enforce ``ceil(|A|/2) <= |B| <= |A|`` from the CSJ definition."""
    size_b, size_a = community_b.n_users, community_a.n_users
    if size_b > size_a or not size_ratio_ok(size_b, size_a):
        raise SizeRatioError(size_b, size_a)


def orient_pair(
    first: Community, second: Community
) -> tuple[Community, Community, bool]:
    """Return ``(B, A, swapped)`` with ``B`` the smaller community.

    The paper always names the less-followed community ``B``.  When the
    caller passes the pair in the opposite order we swap silently and
    flag it, so result pair indices can be interpreted correctly.
    Ties keep the caller's order.
    """
    if first.n_users > second.n_users:
        return second, first, True
    return first, second, False


def validate_epsilon(epsilon: int) -> int:
    """Epsilon is a non-negative integer counter difference threshold."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int,)):
        raise ValidationError(f"epsilon must be an integer, got {epsilon!r}")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
    return int(epsilon)


def validate_pair(
    first: Community,
    second: Community,
    *,
    auto_orient: bool = True,
    enforce_size_ratio: bool = True,
) -> tuple[Community, Community, bool]:
    """Full pre-join validation pipeline.

    Returns the oriented ``(B, A, swapped)`` triple.  With
    ``auto_orient=False`` the input order is kept and a reversed pair
    (``|B| > |A|``) fails the size-ratio check.
    """
    check_dimensions(first, second)
    if auto_orient:
        community_b, community_a, swapped = orient_pair(first, second)
    else:
        community_b, community_a, swapped = first, second, False
    if enforce_size_ratio:
        check_size_ratio(community_b, community_a)
    return community_b, community_a, swapped
