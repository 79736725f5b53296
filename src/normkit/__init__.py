"""normkit: a small, fully inspectable stylization toolkit.

Dense float64 tensors, hand-written forward/backward passes for every
layer (convolution, ReLU, nearest upsampling fused into the next conv,
contrast / batch / instance normalization), a Gram-matrix perceptual loss,
a feed-forward generator with a selectable normalization mode, and a deterministic training loop.

The package imports no submodule itself, so ``normkit.cli`` can set the
thread-cap environment variables before its own imports load numpy;
library users import the submodules they need directly
(``normkit.norms``, ``normkit.generator``, ...).
"""

__version__ = "0.1.0"
