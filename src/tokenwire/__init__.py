"""Loss-resilient token transport for neural-codec style audio streams.

The stack: a DCT toy codec stands in for a neural encoder, an RVQ turns
features into layered tokens, and a count model holds one row of token
counts per layer ("uniform" is the model with no counts). A packet
transport carries the tokens across lossy channels, in batch or
bounded-latency streaming mode, with one slice path at each end: the
sender bit-packs each coarse slice, with its predecessor as a repair
copy, and range-codes each fine slice by its layers' rows; the receiver
looks each arrived packet up in its own map of the heads it can place,
reads each slice from the first of its copies that reads into cells not
yet received, and takes a repair copy only from that copy. It then
reads each frame once: the frame is usable up to its first cell not
received, every cell above that one is cut, and that cell takes its
layer's most probable token when it is a lost coarse one.
"""

__version__ = "0.1.0"

from .audio import (AudioSignal, CodecConfig, analyze, read_audio, synthesize,
                    write_audio)
from .context import (PMF_TOTAL, CountModel, load_count_model,
                      quantize_weights, save_count_model, train_count_model,
                      uniform_pmf)
from .errors import ConfigError, DecodeError
from .experiment import (ExperimentConfig, MetricsRow, TrainedStack,
                         config_from_dict, load_config, run_experiment,
                         run_trial, summarize, train_stack)
from .grid import (GosConfig, SliceGrid, SliceId, StreamConfig, TokenGrid,
                   TokenState, build_slice_grid, periodic_slicing)
from .metrics import mfcc, mfcc_distance, sdr, si_snr, token_accuracy
from .pipeline import (ReceiverReport, SenderReport, receive, receive_tokens,
                       send, send_tokens)
from .rangecoder import CodedSlice, decode_symbols, encode_symbols
from .rvq import (Codebook, RvqCodec, dequantize, load_codec, quantize,
                  save_codec, train_codebooks)
from .streaming import StreamReceiver, StreamSender
from .synthetic import synth_audio
from .transport import (BernoulliChannel, MarkovChannel, Packet,
                        channel_from_spec, load_channel, read_packets,
                        read_trace, write_packets, write_trace)
