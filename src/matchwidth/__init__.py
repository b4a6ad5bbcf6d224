"""Perfect matching width toolbox for bipartite graphs and digraphs."""

from .bigraph import BipartiteGraph
from .digraph import Digraph

__all__ = ["BipartiteGraph", "Digraph"]
__version__ = "0.1.0"
