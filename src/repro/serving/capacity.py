"""Re-export of :class:`~repro.runtime.capacity.CapacityCache` (the search's home)."""

# perfbench's API_MODULES["serving_capacity"] reads CapacityCache from here.
from repro.runtime.capacity import CapacityCache

__all__ = ["CapacityCache"]
