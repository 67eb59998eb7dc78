"""Loss-resilient token transport for neural-codec style audio streams.

The stack: a DCT toy codec stands in for a neural encoder, an RVQ turns
features into layered tokens, a count model holds one row of token counts
per layer, by which a range coder prices the fine layers and concealment
fills each lost coarse token with its layer's most probable one, and a
packet transport with coarse-layer FEC carries them across lossy
channels, in batch or bounded-latency streaming mode.
"""

__version__ = "0.1.0"

from .audio import (AudioSignal, CodecConfig, analyze, read_audio, synthesize,
                    write_audio)
from .context import (PMF_TOTAL, CountModel, UniformModel, load_count_model,
                      quantize_weights, save_count_model, train_count_model,
                      uniform_pmf)
from .dependency import classify_loss, propagate_invalid
from .errors import ConfigError, DecodeError
from .experiment import (ExperimentConfig, MetricsRow, TrainedStack,
                         config_from_dict, load_config, run_experiment,
                         run_trial, summarize, train_stack)
from .grid import (GosConfig, SliceGrid, SliceId, StreamConfig, TokenGrid,
                   TokenState, build_slice_grid, periodic_slicing)
from .metrics import mfcc, mfcc_distance, sdr, si_snr, token_accuracy
from .pipeline import (ReceiverReport, SenderReport, receive, receive_tokens,
                       send, send_tokens)
from .rangecoder import CodedSlice, code_ranges, decode_symbols, encode_symbols
from .rvq import (Codebook, RvqCodec, dequantize, load_codec, quantize,
                  save_codec, train_codebooks)
from .streaming import StreamReceiver, StreamSender
from .synthetic import synth_audio
from .transport import (BernoulliChannel, MarkovChannel, Packet,
                        channel_from_spec, load_channel, read_packets,
                        read_trace, write_packets, write_trace)
