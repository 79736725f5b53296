"""normkit: a small, fully inspectable stylization toolkit.

Dense float64 tensors, hand-written forward/backward passes for every
layer (convolution, ReLU, nearest upsampling fused into the next conv,
contrast / batch / instance normalization), a Gram-matrix perceptual loss,
a feed-forward generator with a selectable normalization mode, and a deterministic training loop.

Submodules are imported lazily by the CLI so that thread-cap environment
variables can take effect before numpy loads; library users should import
the submodules they need directly (``normkit.norms``, ``normkit.generator``,
...).
"""

__version__ = "0.1.0"
