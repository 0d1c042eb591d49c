"""Role analysis of directed continuous-time networks.

The toolkit counts short ordered-edge motifs inside a sliding time
window, records which position each node occupies in every instance,
normalizes the per-node counts into participation profiles, and
clusters the profiles to recover node roles. A block-structured
self-exciting simulator with known ground truth closes the loop.

Each name is imported from the module that defines it; the package
root holds only the version that every manifest records.
"""

__version__ = "0.1.0"
