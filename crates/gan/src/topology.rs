//! Parser for the paper's compact Table V topology notation.
//!
//! The notation describes a network layer by layer with `-`-separated
//! tokens:
//!
//! * `512c5k2s` — a convolution layer with **512 input feature maps**,
//!   5×5 kernels and stride 2;
//! * `512t5k2s` — a transposed convolution layer ("stride of 1/2");
//! * `100f` — a fully-connected layer with a 100-unit input;
//! * `f1` / `t3` — the final output width: a 1-unit FC output or a T-CONV
//!   producing 3 output feature maps;
//! * `(1024t-512t-256t-128t)(5k2s)` — factored common kernel/stride.
//!
//! The op-algebra extensions add suffixes to `c` tokens:
//!
//! * `64c3k1s2d` — dilated convolution (D-CONV) with dilation 2; the
//!   kernel's zero-insertion is the dual of T-CONV's input insertion;
//! * `64c3x5k1x2s` — per-axis `KhxKw` kernel / `ShxSw` stride extents
//!   (rows × cols); the output must stay square, each axis deriving its
//!   own padding;
//! * `64c3k1sbn` / `…pn` / `…nn` — per-layer normalization tags
//!   (BatchNorm / PixelNorm / none); untagged layers keep the legacy
//!   network-wide behaviour;
//! * `64c3k1s+2` — a skip edge: this layer's output is added to the input
//!   of the layer two positions downstream (`+N`, N ≥ 2, matching
//!   channels and extent).
//!
//! Because tokens name layer *inputs*, each layer's output channel count is
//! the next conv-like token's input count (or the trailing `tK`/`fK` spec).
//!
//! ## Under-determined details and how we resolve them
//!
//! The notation omits paddings and spatial sizes, so the parser
//! reconstructs them:
//!
//! * Conv-chain spatial trajectories are anchored at the image: a chain at
//!   the start of a network begins at the item extent; a chain at the end
//!   finishes there. T-CONVs target `O = I·S′`, S-CONVs target
//!   `O = ⌈I/S⌉`, stride-1 layers keep their extent; the padding that
//!   realises each target exactly (Eq. 5 / Eq. 8) is then derived, allowing
//!   one asymmetric end-pad zero where no symmetric padding exists.
//! * A mid-network `Nf` token whose declared input width differs from the
//!   incoming flattened size (DiscoGAN-5pairs' 100-unit bottleneck) expands
//!   to two FC layers: a projection into the declared width followed by the
//!   re-expansion the next conv chain requires.

use crate::layer::{ConvLayer, DconvLayer, FcLayer, Layer, Norm, TconvLayer};
use crate::phase::Phase;
use crate::workload::{phase_workloads, ConvWorkload};
use lergan_tensor::{DconvAxis, DconvGeometry, SconvGeometry, TconvGeometry};
use std::error::Error;
use std::fmt;

/// A residual/skip connection: the output of layer `from` is added to the
/// input of layer `to` (`to ≥ from + 2`, channel counts and spatial
/// extents must match).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SkipEdge {
    /// Index of the layer whose output is forwarded.
    pub from: usize,
    /// Index of the layer whose input receives the addition.
    pub to: usize,
}

/// A parsed network: an ordered list of layers plus the dimensionality the
/// spatial extents live in (2 for images, 3 for 3D-GAN volumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    /// Human-readable name, e.g. `"DCGAN generator"`.
    pub name: String,
    /// Layers in forward order.
    pub layers: Vec<Layer>,
    /// Spatial dimensionality (2 or 3).
    pub dims: u32,
    /// Residual/skip edges declared by `+N` suffixes, in parse order.
    pub skips: Vec<SkipEdge>,
    /// Per-layer normalization variants (same length as `layers`;
    /// [`Norm::Legacy`] for untagged layers).
    pub norms: Vec<Norm>,
}

impl NetworkSpec {
    /// Total weight count across all layers.
    pub fn total_weights(&self) -> u128 {
        self.layers.iter().map(|l| l.weight_count(self.dims)).sum()
    }

    /// Total dense forward MACs for one sample.
    pub fn total_forward_macs_dense(&self) -> u128 {
        self.layers
            .iter()
            .map(|l| l.forward_macs_dense(self.dims))
            .sum()
    }

    /// Total useful (zero-free) forward MACs for one sample.
    pub fn total_forward_macs_useful(&self) -> u128 {
        self.layers
            .iter()
            .map(|l| l.forward_macs_useful(self.dims))
            .sum()
    }

    /// Whether the network contains at least one T-CONV layer.
    pub fn has_tconv(&self) -> bool {
        self.layers.iter().any(|l| matches!(l, Layer::Tconv(_)))
    }

    /// Whether the network contains at least one S-CONV layer.
    pub fn has_sconv(&self) -> bool {
        self.layers.iter().any(|l| matches!(l, Layer::Conv(_)))
    }

    /// Whether the network is purely fully-connected (MAGAN's
    /// discriminator).
    pub fn is_fully_connected(&self) -> bool {
        self.layers.iter().all(|l| matches!(l, Layer::Fc(_)))
    }

    /// Whether the network contains at least one dilated/asymmetric
    /// D-CONV layer.
    pub fn has_dconv(&self) -> bool {
        self.layers.iter().any(|l| matches!(l, Layer::Dconv(_)))
    }

    /// The normalization variant of layer `idx` ([`Norm::Legacy`] when the
    /// spec predates per-layer tags).
    pub fn norm_of(&self, idx: usize) -> Norm {
        self.norms.get(idx).copied().unwrap_or_default()
    }

    /// Skip edges whose addition lands on the input of layer `idx`.
    pub fn skips_into(&self, idx: usize) -> Vec<SkipEdge> {
        self.skips.iter().copied().filter(|s| s.to == idx).collect()
    }
}

/// A complete GAN benchmark: generator plus discriminator plus the item
/// (sample) dimensions from Table V.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GanSpec {
    /// Benchmark name as it appears in Table V.
    pub name: String,
    /// The generator network.
    pub generator: NetworkSpec,
    /// The discriminator network.
    pub discriminator: NetworkSpec,
    /// Item dimensions, e.g. `[64, 64]` or `[64, 64, 64]`.
    pub item_size: Vec<usize>,
    /// Minibatch size used in the evaluation (64 in the paper).
    pub batch_size: usize,
}

impl GanSpec {
    /// Parses a benchmark from its Table V row.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTopologyError`] if either notation string is
    /// malformed or geometrically unrealisable.
    pub fn parse(
        name: &str,
        generator: &str,
        discriminator: &str,
        item_size: &[usize],
    ) -> Result<Self, ParseTopologyError> {
        let dims = item_size.len() as u32;
        if !(2..=3).contains(&dims) {
            return Err(ParseTopologyError::new(
                name,
                "item size must be 2- or 3-dimensional",
            ));
        }
        let extent = item_size[0];
        let generator = parse_network(&format!("{name} generator"), generator, dims, extent)?;
        let discriminator = parse_network(
            &format!("{name} discriminator"),
            discriminator,
            dims,
            extent,
        )?;
        Ok(GanSpec {
            name: name.to_string(),
            generator,
            discriminator,
            item_size: item_size.to_vec(),
            batch_size: 64,
        })
    }

    /// The network a phase runs over.
    pub fn network_for(&self, phase: Phase) -> &NetworkSpec {
        if phase.is_generator_phase() {
            &self.generator
        } else {
            &self.discriminator
        }
    }

    /// Per-layer convolution workloads for a phase (see
    /// [`crate::workload`]).
    pub fn workloads(&self, phase: Phase) -> Vec<ConvWorkload> {
        phase_workloads(self.network_for(phase), phase)
    }

    /// The phases of this GAN that benefit from ZFDR (contain at least one
    /// zero-inserted workload). DiscoGAN-4pairs has five; a plain
    /// T-CONV-generator GAN has four; MAGAN's FC discriminator contributes
    /// none of its D-phases except through its generator.
    pub fn zfdr_phases(&self) -> Vec<Phase> {
        Phase::ALL
            .into_iter()
            .filter(|&p| {
                self.workloads(p)
                    .iter()
                    .any(|w| !matches!(w.kind, crate::workload::WorkloadKind::Dense))
            })
            .collect()
    }
}

/// Renders a per-axis extent as the grammar writes it: `5` when symmetric,
/// `3x5` (rows × cols) otherwise.
fn fmt_extent(rows: usize, cols: usize) -> String {
    if rows == cols {
        rows.to_string()
    } else {
        format!("{rows}x{cols}")
    }
}

/// The trailing norm/skip annotations of the conv-like layer at `i`.
fn layer_annotations(net: &NetworkSpec, i: usize) -> String {
    let mut s = String::new();
    if let Some(tag) = net.norm_of(i).suffix() {
        s.push_str(tag);
    }
    if let Some(sk) = net.skips.iter().find(|sk| sk.from == i) {
        s.push('+');
        s.push_str(&(sk.to - sk.from).to_string());
    }
    s
}

/// Renders a parsed network back into (un-factored) Table V notation,
/// including the extended-grammar suffixes (dilation `Dd`, asymmetric
/// `KhxKw` extents, `bn`/`pn`/`nn` norm tags, `+N` skips).
///
/// Group factoring is not reconstructed — every conv-like token carries
/// its own `WkSs` suffix — so `parse → render → parse` is the identity on
/// layers even though the string may differ from the original.
pub fn render_notation(net: &NetworkSpec) -> String {
    let mut parts: Vec<String> = Vec::new();
    let layers = &net.layers;
    let conv_like =
        |l: Option<&Layer>| matches!(l, Some(Layer::Conv(_) | Layer::Tconv(_) | Layer::Dconv(_)));
    let mut i = 0;
    while i < layers.len() {
        match &layers[i] {
            Layer::Fc(f) => {
                // A mid-network bottleneck (conv → FC → FC → conv, as in
                // DiscoGAN-5pairs) renders as the single `Nf` token the
                // parser expands back into the projection/expansion pair.
                let is_bridge = i > 0
                    && conv_like(layers.get(i - 1))
                    && matches!(layers.get(i + 1), Some(Layer::Fc(g)) if g.in_units == f.out_units)
                    && conv_like(layers.get(i + 2));
                let terminal = i + 1 == layers.len();
                if terminal {
                    // The last FC needs both its input token and the
                    // output-width spec (the parser folds `Nf-fK` into one
                    // layer, and a bare `fK` after a conv chain flattens
                    // implicitly, so either string round-trips).
                    if i > 0 && conv_like(layers.get(i.wrapping_sub(1))) {
                        parts.push(format!("f{}", f.out_units));
                    } else {
                        parts.push(format!("{}f", f.in_units));
                        parts.push(format!("f{}", f.out_units));
                    }
                } else if is_bridge {
                    parts.push(format!("{}f", f.out_units));
                    i += 1; // the expansion FC is implied
                } else {
                    parts.push(format!("{}f", f.in_units));
                }
            }
            Layer::Conv(c) => {
                parts.push(format!(
                    "{}c{}k{}s{}",
                    c.in_channels,
                    c.geometry.kernel,
                    c.geometry.stride,
                    layer_annotations(net, i)
                ));
                // Without a successor token the parser infers oc = ic, so
                // a channel-changing chain tail needs the explicit mark.
                if !conv_like(layers.get(i + 1)) && c.out_channels != c.in_channels {
                    parts.push(format!("t{}", c.out_channels));
                }
            }
            Layer::Dconv(dc) => {
                let g = &dc.geometry;
                let mut tok = format!(
                    "{}c{}k{}s",
                    dc.in_channels,
                    fmt_extent(g.rows.kernel, g.cols.kernel),
                    fmt_extent(g.rows.stride, g.cols.stride),
                );
                if (g.rows.dilation, g.cols.dilation) != (1, 1) {
                    tok.push_str(&fmt_extent(g.rows.dilation, g.cols.dilation));
                    tok.push('d');
                }
                tok.push_str(&layer_annotations(net, i));
                parts.push(tok);
                if !conv_like(layers.get(i + 1)) && dc.out_channels != dc.in_channels {
                    parts.push(format!("t{}", dc.out_channels));
                }
            }
            Layer::Tconv(tl) => {
                parts.push(format!(
                    "{}t{}k{}s{}",
                    tl.in_channels,
                    tl.geometry.kernel,
                    tl.geometry.converse_stride,
                    layer_annotations(net, i)
                ));
                if !conv_like(layers.get(i + 1)) {
                    parts.push(format!("t{}", tl.out_channels));
                }
            }
        }
        i += 1;
    }
    parts.join("-")
}

/// Error produced when a Table V notation string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTopologyError {
    network: String,
    message: String,
}

impl ParseTopologyError {
    fn new(network: &str, message: impl Into<String>) -> Self {
        ParseTopologyError {
            network: network.to_string(),
            message: message.into(),
        }
    }

    /// An error anchored at a specific token: the message names the
    /// offending token text and its character position in the notation
    /// string.
    fn at(network: &str, token: &str, pos: usize, message: impl Into<String>) -> Self {
        ParseTopologyError {
            network: network.to_string(),
            message: format!("token `{token}` at char {pos}: {}", message.into()),
        }
    }
}

impl fmt::Display for ParseTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology for {}: {}", self.network, self.message)
    }
}

impl Error for ParseTopologyError {}

/// A raw token after group expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    /// `Nf` — fully connected layer with an `N`-unit input.
    FcIn(usize),
    /// `fK` — final FC output width.
    FcOut(usize),
    /// `NcWkSs[Dd][bn|pn|nn][+N]` / `NtWkSs[...]` — conv-like layer; the
    /// kernel/stride/dilation extents are per-axis `(rows, cols)` pairs
    /// (written `KhxKw` when asymmetric).
    ConvLike {
        in_channels: usize,
        transposed: bool,
        kernel: (usize, usize),
        stride: (usize, usize),
        dilation: (usize, usize),
        norm: Norm,
        skip: Option<usize>,
    },
    /// `tK` — final T-CONV output channel count.
    FinalChannels(usize),
}

/// The decoded suffix of a conv-like token.
struct ConvSuffix {
    kernel: (usize, usize),
    stride: (usize, usize),
    dilation: (usize, usize),
    norm: Norm,
    skip: Option<usize>,
}

fn parse_token(network: &str, tok: &str, pos: usize) -> Result<Token, ParseTopologyError> {
    let err = |m: &str| ParseTopologyError::at(network, tok, pos, m);
    let bytes = tok.as_bytes();
    if bytes.is_empty() {
        return Err(ParseTopologyError::at(network, "", pos, "empty token"));
    }
    // fK / tK (leading letter).
    if bytes[0] == b'f' || bytes[0] == b't' {
        let n: usize = tok[1..].parse().map_err(|_| err("bad trailing count"))?;
        return Ok(if bytes[0] == b'f' {
            Token::FcOut(n)
        } else {
            Token::FinalChannels(n)
        });
    }
    // Leading number.
    let digits = tok.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return Err(err("expected a leading count"));
    }
    let n: usize = tok[..digits].parse().map_err(|_| err("bad count"))?;
    let rest = &tok[digits..];
    match rest.chars().next() {
        Some('f') if rest.len() == 1 => Ok(Token::FcIn(n)),
        Some(k @ ('c' | 't')) => {
            let ks = &rest[1..];
            if ks.is_empty() {
                return Err(err("conv token missing kernel/stride suffix"));
            }
            let sx = parse_conv_suffix(network, tok, pos, ks)?;
            if k == 't'
                && (sx.kernel.0 != sx.kernel.1
                    || sx.stride.0 != sx.stride.1
                    || sx.dilation != (1, 1))
            {
                return Err(err(
                    "T-CONV tokens take a symmetric kernel/stride and no dilation",
                ));
            }
            Ok(Token::ConvLike {
                in_channels: n,
                transposed: k == 't',
                kernel: sx.kernel,
                stride: sx.stride,
                dilation: sx.dilation,
                norm: sx.norm,
                skip: sx.skip,
            })
        }
        _ => Err(err("unknown layer kind")),
    }
}

/// Parses a per-axis extent: `5` (symmetric) or `3x5` (rows × cols).
fn parse_extent(s: &str) -> Option<(usize, usize)> {
    let (a, b) = match s.split_once('x') {
        Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
        None => {
            let v: usize = s.parse().ok()?;
            (v, v)
        }
    };
    if a == 0 || b == 0 {
        return None;
    }
    Some((a, b))
}

/// Parses the conv-token suffix `<K>k<S>s[<D>d][bn|pn|nn][+N]`
/// (e.g. `5k2s`, `3k1s2d`, `3x5k1x2s`, `3k1sbn+2`).
fn parse_conv_suffix(
    network: &str,
    tok: &str,
    pos: usize,
    suffix: &str,
) -> Result<ConvSuffix, ParseTopologyError> {
    let err = |m: String| ParseTopologyError::at(network, tok, pos, m);
    let mut s = suffix;
    // Trailing `+N` skip distance.
    let mut skip = None;
    if let Some(plus) = s.find('+') {
        let n: usize = s[plus + 1..]
            .parse()
            .map_err(|_| err("bad skip distance after `+`".into()))?;
        skip = Some(n);
        s = &s[..plus];
    }
    // Trailing norm tag. Geometry sections never contain `n`, so the tags
    // are unambiguous.
    let mut norm = Norm::Legacy;
    for (tag, v) in [("bn", Norm::Batch), ("pn", Norm::Pixel), ("nn", Norm::None)] {
        if let Some(stripped) = s.strip_suffix(tag) {
            norm = v;
            s = stripped;
            break;
        }
    }
    // Geometry: `<K>k<S>s` with an optional `<D>d` dilation.
    let kpos = s.find('k').ok_or_else(|| err("missing `k`".into()))?;
    let spos = s.find('s').ok_or_else(|| err("missing `s`".into()))?;
    if kpos + 1 >= spos {
        return Err(err("expected `<K>k<S>s[<D>d]`".into()));
    }
    let kernel =
        parse_extent(&s[..kpos]).ok_or_else(|| err(format!("bad kernel `{}`", &s[..kpos])))?;
    let stride = parse_extent(&s[kpos + 1..spos])
        .ok_or_else(|| err(format!("bad stride `{}`", &s[kpos + 1..spos])))?;
    let dilation = if spos == s.len() - 1 {
        (1, 1)
    } else {
        let d = s[spos + 1..].strip_suffix('d').ok_or_else(|| {
            err(format!(
                "trailing `{}` is not a `<D>d` dilation",
                &s[spos + 1..]
            ))
        })?;
        parse_extent(d).ok_or_else(|| err(format!("bad dilation `{d}`")))?
    };
    Ok(ConvSuffix {
        kernel,
        stride,
        dilation,
        norm,
        skip,
    })
}

/// Splits a notation string into raw token strings, expanding
/// `(A-B-C)(WkSs)` groups. Each token carries the character position it
/// starts at in `s`, so parse errors can point at the offending token.
fn tokenize(network: &str, s: &str) -> Result<Vec<(String, usize)>, ParseTopologyError> {
    let err = |m: &str| ParseTopologyError::new(network, m.to_string());
    let mut out = Vec::new();
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '-' {
            i += 1;
            continue;
        }
        if chars[i] == '(' {
            let close = (i + 1..chars.len())
                .find(|&j| chars[j] == ')')
                .ok_or_else(|| err("unbalanced `(`"))?;
            let body: String = chars[i + 1..close].iter().collect();
            // The group must be followed immediately by a `(WkSs)` suffix.
            if close + 1 >= chars.len() || chars[close + 1] != '(' {
                return Err(err(
                    "layer group must be followed by a (kernel/stride) group",
                ));
            }
            let close2 = (close + 2..chars.len())
                .find(|&j| chars[j] == ')')
                .ok_or_else(|| err("unbalanced suffix `(`"))?;
            let suffix: String = chars[close + 2..close2].iter().collect();
            let mut off = 0;
            for part in body.split('-') {
                if !part.is_empty() {
                    out.push((format!("{part}{suffix}"), i + 1 + off));
                }
                off += part.chars().count() + 1;
            }
            i = close2 + 1;
        } else {
            let end = (i..chars.len())
                .find(|&j| chars[j] == '-' || chars[j] == '(')
                .unwrap_or(chars.len());
            if chars.get(end) == Some(&'(') {
                return Err(err("unexpected `(` inside a token"));
            }
            out.push((chars[i..end].iter().collect(), i));
            i = end;
        }
    }
    if out.is_empty() {
        return Err(err("empty topology"));
    }
    Ok(out)
}

/// Parses one network side of a Table V row.
///
/// `dims` is the spatial dimensionality (2 or 3) and `item_extent` the
/// image/volume edge length that anchors conv-chain spatial trajectories.
///
/// # Errors
///
/// Returns [`ParseTopologyError`] on malformed notation or unrealisable
/// geometry.
pub fn parse_network(
    name: &str,
    notation: &str,
    dims: u32,
    item_extent: usize,
) -> Result<NetworkSpec, ParseTopologyError> {
    let raw = tokenize(name, notation)?;
    let tokens: Vec<Token> = raw
        .iter()
        .map(|(t, p)| parse_token(name, t, *p))
        .collect::<Result<_, _>>()?;

    // --- Pass 1: spatial trajectory for every conv-like token. ---
    // Conv-like tokens form contiguous segments separated by FC tokens.
    let conv_positions: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t, Token::ConvLike { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut spatial_in = vec![0usize; tokens.len()];
    let mut spatial_out = vec![0usize; tokens.len()];
    let mut seg_start = 0;
    while seg_start < conv_positions.len() {
        // Find the contiguous run of conv positions.
        let mut seg_end = seg_start;
        while seg_end + 1 < conv_positions.len()
            && conv_positions[seg_end + 1] == conv_positions[seg_end] + 1
        {
            seg_end += 1;
        }
        let seg: &[usize] = &conv_positions[seg_start..=seg_end];
        let starts_network = seg[0] == 0;
        let ends_network = {
            // The segment ends the network if only output-spec tokens follow.
            tokens[seg[seg.len() - 1] + 1..]
                .iter()
                .all(|t| matches!(t, Token::FinalChannels(_)))
        };
        if starts_network {
            // Anchor at the start: the first conv consumes the item. The
            // row-axis stride drives the scalar spatial trajectory; the
            // column axis must realise the same square output via its own
            // padding (checked at emission).
            let mut cur = item_extent;
            for &p in seg {
                let Token::ConvLike {
                    transposed, stride, ..
                } = tokens[p]
                else {
                    unreachable!()
                };
                spatial_in[p] = cur;
                cur = if transposed {
                    cur * stride.0
                } else {
                    cur.div_ceil(stride.0)
                };
                spatial_out[p] = cur;
            }
        } else if ends_network {
            // Anchor at the end: the last conv produces the item.
            let mut cur = item_extent;
            for &p in seg.iter().rev() {
                let Token::ConvLike {
                    transposed, stride, ..
                } = tokens[p]
                else {
                    unreachable!()
                };
                spatial_out[p] = cur;
                cur = if transposed {
                    cur.div_ceil(stride.0)
                } else {
                    cur * stride.0
                };
                spatial_in[p] = cur;
            }
        } else {
            return Err(ParseTopologyError::new(
                name,
                "a convolution chain must touch the start or the end of the network",
            ));
        }
        seg_start = seg_end + 1;
    }

    // --- Pass 2: emit layers with channel chaining. ---
    let mut layers = Vec::new();
    let mut norms: Vec<Norm> = Vec::new();
    // `+N` skip declarations, recorded as (from-layer-index, distance).
    let mut skips_raw: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    // Flattened width of the data currently flowing (None before any layer).
    let mut flat: Option<u128> = None;
    while i < tokens.len() {
        match tokens[i] {
            Token::ConvLike {
                in_channels,
                transposed,
                kernel,
                stride,
                dilation,
                norm,
                skip,
            } => {
                let out_channels = match tokens.get(i + 1) {
                    Some(Token::ConvLike { in_channels, .. }) => *in_channels,
                    Some(Token::FinalChannels(k)) => *k,
                    _ => in_channels,
                };
                let (sin, sout) = (spatial_in[i], spatial_out[i]);
                // A `c` token with per-axis structure or dilation > 1 is a
                // D-CONV; symmetric dilation-1 tokens normalise to the
                // plain S-CONV layer (bit-identity with the old grammar).
                let symmetric = kernel.0 == kernel.1 && stride.0 == stride.1 && dilation == (1, 1);
                let layer = if transposed {
                    let (kernel, stride) = (kernel.0, stride.0);
                    let geometry = TconvGeometry::for_target(sin, kernel, stride, sout)
                        .filter(|g| g.output == sout)
                        .ok_or_else(|| {
                            ParseTopologyError::new(
                                name,
                                format!(
                                    "no T-CONV geometry realises {sin}->{sout} with \
                                     kernel {kernel} stride 1/{stride}"
                                ),
                            )
                        })?;
                    Layer::Tconv(TconvLayer {
                        in_channels,
                        out_channels,
                        geometry,
                    })
                } else if symmetric {
                    let (kernel, stride) = (kernel.0, stride.0);
                    let geometry = (0..kernel)
                        .filter_map(|p| SconvGeometry::new(sin, kernel, stride, p))
                        .find(|g| g.output == sout)
                        .ok_or_else(|| {
                            ParseTopologyError::new(
                                name,
                                format!(
                                    "no padding realises conv {sin}->{sout} with \
                                     kernel {kernel} stride {stride}"
                                ),
                            )
                        })?;
                    Layer::Conv(ConvLayer {
                        in_channels,
                        out_channels,
                        geometry,
                    })
                } else {
                    if dims != 2 {
                        return Err(ParseTopologyError::new(
                            name,
                            "dilated/asymmetric convolutions support 2-D networks only",
                        ));
                    }
                    let axis = |k: usize, s: usize, dil: usize, which: &str| {
                        DconvAxis::for_target(sin, k, s, dil, sout).ok_or_else(|| {
                            ParseTopologyError::new(
                                name,
                                format!(
                                    "no padding realises dilated conv {sin}->{sout} with \
                                     kernel {k} stride {s} dilation {dil} on the {which} axis"
                                ),
                            )
                        })
                    };
                    let rows = axis(kernel.0, stride.0, dilation.0, "row")?;
                    let cols = axis(kernel.1, stride.1, dilation.1, "column")?;
                    Layer::Dconv(DconvLayer {
                        in_channels,
                        out_channels,
                        geometry: DconvGeometry::new(rows, cols),
                    })
                };
                flat = Some(out_channels as u128 * (sout as u128).pow(dims));
                layers.push(layer);
                norms.push(norm);
                if let Some(n) = skip {
                    skips_raw.push((layers.len() - 1, n));
                }
                // Consume a FinalChannels spec if it closed this chain.
                if matches!(tokens.get(i + 1), Some(Token::FinalChannels(_))) {
                    i += 1;
                }
                i += 1;
            }
            Token::FcIn(n) => {
                // Bridge in if the incoming flat width disagrees (bottleneck
                // FC, see module docs).
                if let Some(f) = flat {
                    if f != n as u128 {
                        layers.push(Layer::Fc(FcLayer {
                            in_units: f as usize,
                            out_units: n,
                        }));
                        norms.push(Norm::Legacy);
                    }
                }
                // Output width: what the next token needs.
                let out_units = match tokens.get(i + 1) {
                    Some(Token::ConvLike { in_channels: c, .. }) => {
                        *c as u128 * (spatial_in[i + 1] as u128).pow(dims)
                    }
                    Some(Token::FcIn(m)) => *m as u128,
                    Some(Token::FcOut(k)) => {
                        // `Nf-fK`: this FC maps N directly to K.
                        *k as u128
                    }
                    Some(Token::FinalChannels(_)) | None => {
                        return Err(ParseTopologyError::new(
                            name,
                            "an FC layer needs a successor to size its output",
                        ));
                    }
                };
                layers.push(Layer::Fc(FcLayer {
                    in_units: n,
                    out_units: out_units as usize,
                }));
                norms.push(Norm::Legacy);
                flat = Some(out_units);
                // `fK` right after is consumed as this layer's output spec.
                if matches!(tokens.get(i + 1), Some(Token::FcOut(_))) {
                    i += 1;
                }
                i += 1;
            }
            Token::FcOut(k) => {
                // A trailing `fK` after a conv chain: flatten and map to K.
                let in_units = flat
                    .ok_or_else(|| ParseTopologyError::new(name, "`fK` cannot start a network"))?
                    as usize;
                layers.push(Layer::Fc(FcLayer {
                    in_units,
                    out_units: k,
                }));
                norms.push(Norm::Legacy);
                flat = Some(k as u128);
                i += 1;
            }
            Token::FinalChannels(_) => {
                return Err(ParseTopologyError::new(
                    name,
                    "`tK` must directly follow a transposed-convolution chain",
                ));
            }
        }
    }

    // --- Resolve skip declarations into validated edges. ---
    let mut skips = Vec::new();
    for (from, n) in skips_raw {
        if n < 2 {
            return Err(ParseTopologyError::new(
                name,
                format!("skip `+{n}` on layer {from} must span at least 2 layers"),
            ));
        }
        let to = from + n;
        let Some(target) = layers.get(to) else {
            return Err(ParseTopologyError::new(
                name,
                format!(
                    "skip `+{n}` on layer {from} points past the last layer \
                     (network has {} layers)",
                    layers.len()
                ),
            ));
        };
        if matches!(target, Layer::Fc(_)) {
            return Err(ParseTopologyError::new(
                name,
                format!("skip `+{n}` on layer {from} targets an FC layer"),
            ));
        }
        let (oc, os) = (layers[from].fan_out_channels(), layers[from].out_spatial());
        let (ic, is) = (target.fan_in_channels(), target.in_spatial());
        if oc != ic || os != is {
            return Err(ParseTopologyError::new(
                name,
                format!(
                    "skip from layer {from} carries {oc} channels at extent {os} \
                     but layer {to} consumes {ic} channels at extent {is}"
                ),
            ));
        }
        skips.push(SkipEdge { from, to });
    }

    Ok(NetworkSpec {
        name: name.to_string(),
        layers,
        dims,
        skips,
        norms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_expands_groups() {
        let t = tokenize("t", "100f-(1024t-512t-256t-128t)(5k2s)-t3").unwrap();
        let strings: Vec<&str> = t.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            strings,
            vec![
                "100f",
                "1024t5k2s",
                "512t5k2s",
                "256t5k2s",
                "128t5k2s",
                "t3"
            ]
        );
        // Positions point at where each token (or group member) starts.
        let positions: Vec<usize> = t.iter().map(|(_, p)| *p).collect();
        assert_eq!(positions, vec![0, 6, 12, 17, 22, 34]);
    }

    #[test]
    fn tokenize_rejects_unbalanced() {
        assert!(tokenize("t", "(1024t-512t(5k2s)").is_err());
        assert!(tokenize("t", "(1024t)").is_err());
        assert!(tokenize("t", "").is_err());
    }

    #[test]
    fn token_kinds() {
        assert_eq!(parse_token("t", "100f", 0).unwrap(), Token::FcIn(100));
        assert_eq!(parse_token("t", "f11", 0).unwrap(), Token::FcOut(11));
        assert_eq!(parse_token("t", "t3", 0).unwrap(), Token::FinalChannels(3));
        assert_eq!(
            parse_token("t", "512c5k2s", 0).unwrap(),
            Token::ConvLike {
                in_channels: 512,
                transposed: false,
                kernel: (5, 5),
                stride: (2, 2),
                dilation: (1, 1),
                norm: Norm::Legacy,
                skip: None,
            }
        );
        assert_eq!(
            parse_token("t", "128t4k1s", 0).unwrap(),
            Token::ConvLike {
                in_channels: 128,
                transposed: true,
                kernel: (4, 4),
                stride: (1, 1),
                dilation: (1, 1),
                norm: Norm::Legacy,
                skip: None,
            }
        );
        assert!(parse_token("t", "128x", 0).is_err());
        assert!(parse_token("t", "128c", 0).is_err());
        assert!(parse_token("t", "", 0).is_err());
    }

    #[test]
    fn extended_token_suffixes() {
        assert_eq!(
            parse_token("t", "64c3k1s2d", 0).unwrap(),
            Token::ConvLike {
                in_channels: 64,
                transposed: false,
                kernel: (3, 3),
                stride: (1, 1),
                dilation: (2, 2),
                norm: Norm::Legacy,
                skip: None,
            }
        );
        assert_eq!(
            parse_token("t", "64c3x5k1x2sbn+2", 0).unwrap(),
            Token::ConvLike {
                in_channels: 64,
                transposed: false,
                kernel: (3, 5),
                stride: (1, 2),
                dilation: (1, 1),
                norm: Norm::Batch,
                skip: Some(2),
            }
        );
        assert_eq!(
            parse_token("t", "32c3k1s4dpn", 0).unwrap(),
            Token::ConvLike {
                in_channels: 32,
                transposed: false,
                kernel: (3, 3),
                stride: (1, 1),
                dilation: (4, 4),
                norm: Norm::Pixel,
                skip: None,
            }
        );
        // Dilation and asymmetry are S-CONV-only.
        assert!(parse_token("t", "64t3k1s2d", 0).is_err());
        assert!(parse_token("t", "64t3x5k1s", 0).is_err());
        // Malformed pieces are rejected.
        assert!(parse_token("t", "64c3k1s0d", 0).is_err());
        assert!(parse_token("t", "64c3k1s+x", 0).is_err());
        assert!(parse_token("t", "64c3k1s2q", 0).is_err());
    }

    #[test]
    fn parse_errors_name_the_token_and_position() {
        let e = parse_network("X", "100f-64c3k", 2, 64).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("`64c3k`"), "{msg}");
        assert!(msg.contains("char 5"), "{msg}");
        // Group members are located inside the group body.
        let e = parse_network("X", "(3c-64q)(5k2s)-f1", 2, 64).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("`64q5k2s`"), "{msg}");
        assert!(msg.contains("char 4"), "{msg}");
    }

    #[test]
    fn dcgan_generator_structure() {
        let net = parse_network(
            "DCGAN generator",
            "100f-(1024t-512t-256t-128t)(5k2s)-t3",
            2,
            64,
        )
        .unwrap();
        assert_eq!(net.layers.len(), 5);
        // FC 100 -> 1024 x 4 x 4.
        let Layer::Fc(fc) = net.layers[0] else {
            panic!("expected FC first");
        };
        assert_eq!((fc.in_units, fc.out_units), (100, 1024 * 16));
        // Channel chain 1024 -> 512 -> 256 -> 128 -> 3.
        let chans: Vec<(usize, usize)> = net.layers[1..]
            .iter()
            .map(|l| (l.fan_in_channels(), l.fan_out_channels()))
            .collect();
        assert_eq!(chans, vec![(1024, 512), (512, 256), (256, 128), (128, 3)]);
        // Spatial chain 4 -> 8 -> 16 -> 32 -> 64.
        let spatial: Vec<(usize, usize)> = net.layers[1..]
            .iter()
            .map(|l| (l.in_spatial(), l.out_spatial()))
            .collect();
        assert_eq!(spatial, vec![(4, 8), (8, 16), (16, 32), (32, 64)]);
    }

    #[test]
    fn dcgan_discriminator_structure() {
        let net = parse_network(
            "DCGAN discriminator",
            "(3c-128c-256c-512c-1024c)(5k2s)-f1",
            2,
            64,
        )
        .unwrap();
        assert_eq!(net.layers.len(), 6);
        let spatial: Vec<usize> = net.layers[..5].iter().map(|l| l.out_spatial()).collect();
        assert_eq!(spatial, vec![32, 16, 8, 4, 2]);
        let Layer::Fc(fc) = net.layers[5] else {
            panic!("expected trailing FC");
        };
        assert_eq!(fc.out_units, 1);
        assert_eq!(fc.in_units, 1024 * 4);
    }

    #[test]
    fn magan_generator_structure() {
        let net = parse_network("MAGAN generator", "50f-128t7k1s-64t4k2s-t1", 2, 28).unwrap();
        assert_eq!(net.layers.len(), 3);
        let Layer::Fc(fc) = net.layers[0] else {
            panic!()
        };
        assert_eq!((fc.in_units, fc.out_units), (50, 128 * 14 * 14));
        let Layer::Tconv(t1) = net.layers[1] else {
            panic!()
        };
        assert_eq!((t1.geometry.input, t1.geometry.output), (14, 14));
        let Layer::Tconv(t2) = net.layers[2] else {
            panic!()
        };
        assert_eq!((t2.geometry.input, t2.geometry.output), (14, 28));
        assert_eq!((t2.in_channels, t2.out_channels), (64, 1));
    }

    #[test]
    fn magan_discriminator_is_fully_connected() {
        let net = parse_network("MAGAN discriminator", "784f-256f-256f-784f-f11", 2, 28).unwrap();
        assert!(net.is_fully_connected());
        let widths: Vec<(usize, usize)> = net
            .layers
            .iter()
            .map(|l| (l.fan_in_channels(), l.fan_out_channels()))
            .collect();
        assert_eq!(widths, vec![(784, 256), (256, 256), (256, 784), (784, 11)]);
    }

    #[test]
    fn discogan_4pairs_generator_has_both_conv_kinds() {
        let net = parse_network(
            "DiscoGAN-4pairs generator",
            "(3c-64c-128c-256c-512t-256t-128t-64t)(4k2s)-t3",
            2,
            64,
        )
        .unwrap();
        assert_eq!(net.layers.len(), 8);
        assert!(net.has_sconv() && net.has_tconv());
        let spatial: Vec<usize> = net.layers.iter().map(|l| l.out_spatial()).collect();
        assert_eq!(spatial, vec![32, 16, 8, 4, 8, 16, 32, 64]);
        assert_eq!(net.layers[7].fan_out_channels(), 3);
    }

    #[test]
    fn discogan_5pairs_has_bottleneck_fcs() {
        let net = parse_network(
            "DiscoGAN-5pairs generator",
            "(3c-64c-128c-256c-512c)(4k2s)-100f-(512t-256t-128t-64t)(4k2s)-t3",
            2,
            64,
        )
        .unwrap();
        // 5 convs + bridge FC (2048->100) + FC (100->8192) + 4 T-CONVs.
        assert_eq!(net.layers.len(), 11);
        let Layer::Fc(bridge) = net.layers[5] else {
            panic!("expected bridging FC");
        };
        assert_eq!((bridge.in_units, bridge.out_units), (512 * 4, 100));
        let Layer::Fc(expand) = net.layers[6] else {
            panic!("expected expansion FC");
        };
        assert_eq!((expand.in_units, expand.out_units), (100, 512 * 16));
        let Layer::Tconv(first_t) = net.layers[7] else {
            panic!("expected T-CONV after FCs");
        };
        assert_eq!(first_t.geometry.input, 4);
    }

    #[test]
    fn artgan_generator_handles_stride1_layers() {
        let net = parse_network(
            "ArtGAN generator",
            "100f-1024t4k1s-512t4k2s-256t4k2s-128t4k2s-128t3k1s-t3",
            2,
            32,
        )
        .unwrap();
        assert_eq!(net.layers.len(), 6);
        let spatial: Vec<(usize, usize)> = net.layers[1..]
            .iter()
            .map(|l| (l.in_spatial(), l.out_spatial()))
            .collect();
        assert_eq!(spatial, vec![(4, 4), (4, 8), (8, 16), (16, 32), (32, 32)]);
    }

    #[test]
    fn volumetric_3dgan_fc_sizes_cube() {
        let net =
            parse_network("3D-GAN generator", "100f-(512t-256t-128t)(4k2s)-t3", 3, 64).unwrap();
        let Layer::Fc(fc) = net.layers[0] else {
            panic!()
        };
        // 64 / 2^3 = 8 start extent, cubed for a volumetric network.
        assert_eq!(fc.out_units, 512 * 8 * 8 * 8);
    }

    #[test]
    fn gan_spec_parses_full_row() {
        let g = GanSpec::parse(
            "DCGAN",
            "100f-(1024t-512t-256t-128t)(5k2s)-t3",
            "(3c-128c-256c-512c-1024c)(5k2s)-f1",
            &[64, 64],
        )
        .unwrap();
        assert_eq!(g.batch_size, 64);
        assert_eq!(g.generator.dims, 2);
        assert!(g.generator.has_tconv());
        assert!(!g.discriminator.has_tconv());
    }

    #[test]
    fn render_round_trips_every_benchmark() {
        use crate::benchmarks;
        for gan in benchmarks::all() {
            for net in [&gan.generator, &gan.discriminator] {
                let notation = render_notation(net);
                let reparsed = parse_network(
                    &net.name,
                    &notation,
                    net.dims,
                    // The item extent anchors spatial chains; recover it
                    // from the network's own boundary layers.
                    gan.item_size[0],
                )
                .unwrap_or_else(|e| panic!("{}: `{notation}`: {e}", net.name));
                assert_eq!(
                    reparsed.layers, net.layers,
                    "{}: round trip through `{notation}`",
                    net.name
                );
            }
        }
    }

    #[test]
    fn dilated_conv_parses_to_dconv_layer() {
        let net = parse_network("dil", "(3c-32c)(3k1s)-64c3k1s2d-32c3k1s4d-f1", 2, 32).unwrap();
        assert!(net.has_dconv());
        let Layer::Dconv(dc) = net.layers[2] else {
            panic!("expected D-CONV at layer 2, got {:?}", net.layers[2]);
        };
        assert_eq!(dc.geometry.rows.dilation, 2);
        assert_eq!(dc.geometry.rows.effective_kernel(), 5);
        // Dilation with stride 1 keeps the extent: pad = (Keff-1)/2.
        assert_eq!((dc.geometry.rows.input, dc.geometry.rows.output), (32, 32));
        assert_eq!(dc.geometry.rows.pad, 2);
        let Layer::Dconv(dc4) = net.layers[3] else {
            panic!();
        };
        assert_eq!(dc4.geometry.rows.effective_kernel(), 9);
    }

    #[test]
    fn asymmetric_conv_requires_square_output() {
        // 3x5 kernel with per-axis padding keeps 32x32 square.
        let net = parse_network("asym", "3c3x5k1x1s-16c3k1s-f1", 2, 32).unwrap();
        let Layer::Dconv(dc) = net.layers[0] else {
            panic!("expected D-CONV, got {:?}", net.layers[0]);
        };
        assert_eq!((dc.geometry.rows.kernel, dc.geometry.cols.kernel), (3, 5));
        assert_eq!(dc.geometry.rows.output, dc.geometry.cols.output);
        // A column geometry that cannot reach the row-axis target errors.
        assert!(parse_network("asym", "3c3x4k1x3s-16c3k1s-f1", 2, 31).is_err());
    }

    #[test]
    fn skip_edges_resolve_and_validate() {
        let net =
            parse_network("skip", "(3c-32c)(3k1s)-32c3k1s+2-32c3k1s-32c3k1s-f1", 2, 32).unwrap();
        assert_eq!(net.skips, vec![SkipEdge { from: 2, to: 4 }]);
        // Channel mismatch between skip source output and target input.
        let e = parse_network("skip", "(3c-32c)(3k1s)-32c3k1s+2-32c3k1s-64c3k1s-f1", 2, 32)
            .unwrap_err();
        assert!(e.to_string().contains("channels"), "{e}");
        // Skips shorter than 2 layers or past the end are rejected.
        assert!(parse_network("skip", "(3c-32c-32c)(3k1s)-32c3k1s+1-f1", 2, 32).is_err());
        assert!(parse_network("skip", "(3c-32c-32c)(3k1s)-32c3k1s+9-f1", 2, 32).is_err());
    }

    #[test]
    fn norm_tags_attach_per_layer() {
        let net = parse_network(
            "norm",
            "(3c-32c)(3k1s)-32c3k1sbn-32c3k1spn-32c3k1snn-f1",
            2,
            32,
        )
        .unwrap();
        assert_eq!(
            net.norms,
            vec![
                Norm::Legacy,
                Norm::Legacy,
                Norm::Batch,
                Norm::Pixel,
                Norm::None,
                Norm::Legacy
            ]
        );
        assert_eq!(net.norm_of(3), Norm::Pixel);
    }

    #[test]
    fn render_round_trips_extended_grammar() {
        for notation in [
            "(3c-32c)(3k1s)-64c3k1s2d-32c3k1s4d-f1",
            "(3c-32c)(3k1s)-32c3k1s+2-32c3k1spn-32c3k1s-f1",
            "3c3x5k1x1s-16c3k1sbn-f1",
            "100f-(64t-32t)(4k2s)-t3",
        ] {
            let net = parse_network("ext", notation, 2, 32).unwrap();
            let rendered = render_notation(&net);
            let reparsed = parse_network("ext", &rendered, 2, 32)
                .unwrap_or_else(|e| panic!("`{rendered}`: {e}"));
            assert_eq!(reparsed.layers, net.layers, "via `{rendered}`");
            assert_eq!(reparsed.skips, net.skips, "via `{rendered}`");
            assert_eq!(reparsed.norms, net.norms, "via `{rendered}`");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        let e = parse_network("X", "100f", 2, 64).unwrap_err();
        assert!(e.to_string().contains("successor"));
        let e = parse_network("X", "f1-3c4k2s", 2, 64).unwrap_err();
        assert!(e.to_string().contains("cannot start"));
    }
}
