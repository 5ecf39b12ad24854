"""Rumor centrality pinned bit for bit: the oracle for its array rewrite.

``RumorCentralityEstimator`` scores every infected candidate on a BFS tree
of the infected subgraph, and both the BFS parents and the order of the
``log_value -= log(size)`` sum follow networkx adjacency order, so the
floats (which feed the privacy digest) depend on that order.  These are
the exact ``(log_centrality, candidate)`` lists it returns today, for one
connected and one disconnected snapshot on a random-regular and on an
Erdős–Rényi overlay; a rewrite that walks the CSR instead must reproduce
them with ``==``, not approximately.
"""

import networkx as nx
import pytest

from repro.network.simulator import Simulator
from repro.network.topology import erdos_renyi_overlay, random_regular_overlay
from repro.threat.rumor_centrality import RumorCentralityEstimator

OVERLAYS = {
    "random_regular": lambda: random_regular_overlay(80, degree=4, seed=7),
    "erdos_renyi": lambda: erdos_renyi_overlay(80, avg_degree=3.0, seed=7),
}

# (overlay, snapshot kind, infected nodes, expected scores).  Connected
# snapshots are balls around node 0; disconnected ones are a ball around
# node 0 plus one around a node far from it.
CASES = [
    ("random_regular", "connected",
     [0, 3, 4, 15, 22, 24, 26, 27, 37, 46, 47, 48, 50, 52, 64, 69, 79],
     [
         (25.126682661601112, 0),
         (20.850016542585056, 15),
         (23.39946171351063, 22),
         (21.175438943019685, 24),
         (23.948027665259467, 26),
         (20.626872991270847, 27),
         (21.13769861503684, 3),
         (20.850016542585056, 37),
         (23.622605264824838, 4),
         (21.175438943019685, 46),
         (20.732233506928672, 47),
         (20.732233506928672, 48),
         (21.175438943019685, 50),
         (23.622605264824838, 52),
         (19.844113652021218, 64),
         (20.850016542585056, 69),
         (20.578082827101415, 79),
     ]),
    ("random_regular", "disconnected",
     [0, 1, 4, 5, 7, 20, 22, 26, 41, 42, 43, 44, 52, 55, 59, 62, 63,
     66, 71, 75, 77],
     [
         (3.178053830347946, 0),
         (21.34249302768285, 1),
         (18.63444282658064, 20),
         (1.7917594692280556, 22),
         (1.7917594692280556, 26),
         (1.7917594692280556, 4),
         (18.516659790924255, 41),
         (18.835113522042786, 42),
         (18.835113522042786, 43),
         (18.835113522042786, 44),
         (22.641776011813107, 5),
         (1.7917594692280556, 52),
         (18.63444282658064, 55),
         (21.543163723144996, 59),
         (21.543163723144996, 62),
         (18.835113522042786, 63),
         (18.45212126978668, 66),
         (18.45212126978668, 7),
         (18.857586377894847, 71),
         (18.835113522042786, 75),
         (21.224709992026465, 77),
     ]),
    ("erdos_renyi", "connected",
     [0, 1, 6, 8, 10, 11, 15, 17, 19, 21, 22, 23, 26, 28, 32, 38, 39,
     40, 46, 50, 54, 56, 64, 65, 66, 67, 68, 71, 72, 77],
     [
         (57.75022984887959, 0),
         (50.16450074825003, 1),
         (53.54747061615293, 10),
         (58.24163738678847, 11),
         (52.01906111871711, 15),
         (54.648548997316226, 17),
         (51.28125316732976, 19),
         (52.84062459123481, 21),
         (53.47847774466597, 22),
         (52.54230926248167, 23),
         (50.874307674051146, 26),
         (56.84577357465245, 28),
         (57.287606326931474, 32),
         (56.68876982584279, 38),
         (53.47847774466597, 39),
         (54.786534740290115, 40),
         (56.91476644613941, 46),
         (53.290879130771174, 50),
         (53.47847774466597, 54),
         (54.24160350403763, 56),
         (54.6411688900186, 6),
         (48.91000015985613, 64),
         (53.47847774466597, 65),
         (56.65817496075765, 66),
         (52.45577877032939, 67),
         (53.54747061615293, 68),
         (53.290879130771174, 71),
         (53.59872687281754, 72),
         (53.92031049694501, 77),
         (53.47847774466597, 8),
     ]),
    ("erdos_renyi", "disconnected",
     [0, 7, 18, 25, 31, 32, 38, 44, 59, 75],
     [
         (0.6931471805599456, 0),
         (4.382026634673881, 18),
         (2.302585092994046, 25),
         (4.0943445622221, 31),
         (3.3306690738754696e-16, 32),
         (3.3306690738754696e-16, 38),
         (2.302585092994046, 44),
         (2.302585092994046, 59),
         (2.302585092994046, 7),
         (4.0943445622221, 75),
     ]),
]


def _scores(overlay, infected):
    sim = Simulator(overlay, seed=0)
    for node in infected:
        sim.metrics.record_delivery(node, "tx", 0.0)
    return RumorCentralityEstimator(sim)._scores("tx")


@pytest.mark.parametrize(
    "family,kind,infected,expected", CASES,
    ids=[f"{case[0]}-{case[1]}" for case in CASES],
)
def test_scores_are_pinned_exactly(family, kind, infected, expected):
    overlay = OVERLAYS[family]()
    connected = nx.is_connected(overlay.to_networkx().subgraph(infected))
    assert connected == (kind == "connected")
    assert _scores(overlay, infected) == expected
