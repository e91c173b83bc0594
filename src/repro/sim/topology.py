"""Deployment topologies: sites, regions and inter-site latencies.

The paper evaluates in two environments:

* *local experiments*: one datacenter, 4 servers on a 10 Gbps switch with a
  0.1 ms round-trip time;
* *global experiments*: Amazon EC2 large instances in four regions
  (eu-west-1, us-west-1, us-west-2, us-east-1).

:class:`Topology` captures both.  A topology is a set of named sites plus a
one-way latency matrix and per-link bandwidth.  Factory functions build the
two deployments used by the benchmark harness; the inter-region latencies are
of the order publicly reported for EC2 at the time of the paper (tens of
milliseconds inside a coast, ~70-80 ms across the US, ~140+ ms transatlantic
to the US west coast).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Site", "Topology", "single_datacenter", "ec2_global", "EC2_REGIONS"]

#: Region names used by the paper's horizontal-scalability experiment (§8.4.2).
EC2_REGIONS = ("us-west-2", "us-west-1", "us-east-1", "eu-west-1")


@dataclass(frozen=True)
class Site:
    """A physical location hosting processes.

    Attributes
    ----------
    name:
        Unique site name (e.g. ``"dc1"`` or ``"eu-west-1"``).
    region:
        Region label used to group sites; for a single datacenter the region
        and the site coincide.
    """

    name: str
    region: str


class Topology:
    """Sites plus a pairwise one-way latency / bandwidth model.

    Latency between two sites is one-way in seconds; bandwidth is in bits per
    second and models the narrowest link on the path.  Intra-site messages use
    ``local_latency`` and ``local_bandwidth_bps``.
    """

    def __init__(
        self,
        local_latency: float = 0.00005,
        local_bandwidth_bps: float = 10e9,
    ) -> None:
        self._sites: Dict[str, Site] = {}
        self._latency: Dict[Tuple[str, str], float] = {}
        self._bandwidth: Dict[Tuple[str, str], float] = {}
        self.local_latency = local_latency
        self.local_bandwidth_bps = local_bandwidth_bps

    # ----------------------------------------------------------------- sites
    def add_site(self, name: str, region: Optional[str] = None) -> Site:
        """Add a site; the region defaults to the site name."""
        if name in self._sites:
            raise ValueError(f"site already exists: {name}")
        site = Site(name=name, region=region or name)
        self._sites[name] = site
        return site

    def sites(self) -> List[Site]:
        """All sites in insertion order."""
        return list(self._sites.values())

    def has_site(self, name: str) -> bool:
        """Whether a site with this name exists."""
        return name in self._sites

    # ----------------------------------------------------------------- links
    def set_link(
        self,
        a: str,
        b: str,
        one_way_latency: float,
        bandwidth_bps: float = 1e9,
        symmetric: bool = True,
    ) -> None:
        """Define the latency/bandwidth between two sites."""
        if a not in self._sites or b not in self._sites:
            raise KeyError("both sites must exist before defining a link")
        self._latency[(a, b)] = one_way_latency
        self._bandwidth[(a, b)] = bandwidth_bps
        if symmetric:
            self._latency[(b, a)] = one_way_latency
            self._bandwidth[(b, a)] = bandwidth_bps

    def latency(self, a: str, b: str) -> float:
        """One-way latency in seconds between sites ``a`` and ``b``."""
        if a == b:
            return self.local_latency
        try:
            return self._latency[(a, b)]
        except KeyError:
            raise KeyError(f"no link defined between {a} and {b}") from None

    def bandwidth(self, a: str, b: str) -> float:
        """Bandwidth in bits/second between sites ``a`` and ``b``."""
        if a == b:
            return self.local_bandwidth_bps
        return self._bandwidth.get((a, b), 1e9)


def single_datacenter(
    name: str = "dc1",
    rtt: float = 0.0001,
    bandwidth_bps: float = 10e9,
) -> Topology:
    """The paper's local cluster: one site, 0.1 ms RTT, 10 Gbps links.

    All processes are placed on the single site; the RTT parameter controls
    the intra-site latency (one-way latency is ``rtt / 2``).
    """
    topo = Topology(local_latency=rtt / 2.0, local_bandwidth_bps=bandwidth_bps)
    topo.add_site(name)
    return topo


#: Approximate one-way latencies (seconds) between the EC2 regions used in the
#: paper.  Values reflect the publicly observed order of magnitude circa 2014:
#: ~10 ms within the US west coast, ~35-40 ms west-east, ~70-75 ms Europe-east,
#: ~140-160 ms RTT Europe-west coast.
_EC2_ONE_WAY = {
    ("us-west-2", "us-west-1"): 0.010,
    ("us-west-2", "us-east-1"): 0.035,
    ("us-west-2", "eu-west-1"): 0.070,
    ("us-west-1", "us-east-1"): 0.037,
    ("us-west-1", "eu-west-1"): 0.074,
    ("us-east-1", "eu-west-1"): 0.040,
}


def ec2_global(
    regions: Iterable[str] = EC2_REGIONS,
    wan_bandwidth_bps: float = 0.5e9,
) -> Topology:
    """The paper's global deployment: one site per EC2 region.

    Parameters
    ----------
    regions:
        Which regions to instantiate (defaults to the four used in §8.4.2).
    wan_bandwidth_bps:
        Bandwidth of inter-region links (EC2 large instances of the era
        sustained well under 1 Gbps across regions).
    """
    regions = list(regions)
    unknown = [r for r in regions if r not in EC2_REGIONS]
    if unknown:
        raise ValueError(f"unknown EC2 regions: {unknown}")
    topo = Topology(local_latency=0.0003, local_bandwidth_bps=1e9)
    for region in regions:
        topo.add_site(region)
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            key = (a, b) if (a, b) in _EC2_ONE_WAY else (b, a)
            topo.set_link(a, b, _EC2_ONE_WAY[key], wan_bandwidth_bps)
    return topo
