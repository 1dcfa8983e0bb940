//! Property tests for the wire byte codec: serializing any packed tensor
//! and deserializing it must reproduce the decode bit-for-bit, for every
//! quantizer kind, at random shapes — including ragged tails — and random
//! data with planted outliers.

use proptest::prelude::*;
use snip_quant::format::{ElementFormat, FloatFormat};
use snip_quant::granularity::Granularity;
use snip_quant::int::IntFormat;
use snip_quant::{
    PackedOutlier, PackedQuantize, PackedTensor, Quantizer, Rounding, WIRE_HEADER_BYTES,
};
use snip_tensor::rng::Rng;
use snip_tensor::{QTensor, Tensor};

fn quantizer_for(kind: usize, nb: usize, rounding: Rounding) -> Box<dyn PackedQuantize> {
    let plain = Quantizer::new(FloatFormat::e2m1(), Granularity::Tile { nb }, rounding);
    match kind {
        0 => Box::new(plain),
        1 => Box::new(Quantizer::new(
            FloatFormat::e4m3(),
            Granularity::Block { nb },
            rounding,
        )),
        2 => Box::new(Quantizer::int8_tile(nb)),
        3 => Box::new(Quantizer::mxfp4().with_rounding(rounding)),
        4 => Box::new(plain.with_rht(nb.next_power_of_two(), 19)),
        _ => Box::new(plain.with_outliers(0.03)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wire_frames_round_trip_bit_for_bit(
        kind in 0usize..6,
        rows in 1usize..7,
        cols in 1usize..70,
        nb in 4usize..20,
        stochastic in 0usize..2,
        seed in 0u64..1000,
    ) {
        let rounding = if stochastic == 1 { Rounding::Stochastic } else { Rounding::Nearest };
        let q = quantizer_for(kind, nb, rounding);
        let mut data_rng = Rng::seed_from(seed);
        let mut t = Tensor::randn(rows, cols, 1.0, &mut data_rng);
        // Plant a spike so the outlier split has work to do.
        t[(rows / 2, cols / 2)] = 37.0;

        let packed = q.pack(&t, &mut Rng::seed_from(seed ^ 0xF00D)).expect("packable");
        let frame = packed.to_wire_bytes().expect("built-in format");
        prop_assert_eq!(
            frame.len() as u64,
            WIRE_HEADER_BYTES as u64 + packed.wire_bytes(),
            "payload section must equal the accounted wire volume"
        );
        prop_assert_eq!(
            Some(packed.wire_bytes()),
            q.packed_wire_bytes(rows, cols),
            "analytic accounting must match the actual pack"
        );

        let back = PackedTensor::from_wire_bytes(&frame).expect("well-formed frame");
        let (a, b) = (packed.dequantize(), back.dequantize());
        prop_assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "element {}: {} vs {}", i, x, y);
        }
    }
}

/// The 36 header bytes of one frame per packed variant × {e2m1, e4m3, int4,
/// int8} (plus the remaining float ids and the narrowest int id), recorded
/// at the commit before the element-format enumerations were merged. The
/// scale layout cycles through all five tags. Format ids (`0–3`,
/// `0x10 | bits`), variant bytes (`0–3`) and layout tags are a wire
/// contract: a refactor may not renumber them.
const GOLDEN_HEADERS: [(&str, &str); 19] = [
    (
        "codes e2m1",
        "5350010000000000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "codes e4m3",
        "5350010001010000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "codes int4",
        "5350010014020000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "codes int8",
        "5350010018030000030000000a0000000400000000000000000000000000000000000000",
    ),
    (
        "mx e2m1",
        "5350010100040000030000000a0000000800000000000000000000000000000000000000",
    ),
    (
        "mx e4m3",
        "5350010101000000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "mx int4",
        "5350010114010000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "mx int8",
        "5350010118020000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "rotated e2m1",
        "5350010200030000030000000a0000000400000010000000efcdab896745230100000000",
    ),
    (
        "rotated e4m3",
        "5350010201040000030000000a0000000800000010000000efcdab896745230100000000",
    ),
    (
        "rotated int4",
        "5350010214000000030000000a0000000000000010000000efcdab896745230100000000",
    ),
    (
        "rotated int8",
        "5350010218010000030000000a0000000000000010000000efcdab896745230100000000",
    ),
    (
        "split e2m1",
        "5350010300020000030000000a0000000000000000000000000000000000000002000000",
    ),
    (
        "split e4m3",
        "5350010301030000030000000a0000000400000000000000000000000000000002000000",
    ),
    (
        "split int4",
        "5350010314040000030000000a0000000800000000000000000000000000000002000000",
    ),
    (
        "split int8",
        "5350010318000000030000000a0000000000000000000000000000000000000002000000",
    ),
    (
        "codes e5m2",
        "5350010002010000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "codes e3m4",
        "5350010003010000030000000a0000000000000000000000000000000000000000000000",
    ),
    (
        "codes int2",
        "5350010012010000030000000a0000000000000000000000000000000000000000000000",
    ),
];

const GOLDEN_LAYOUTS: [Granularity; 5] = [
    Granularity::Tensorwise,
    Granularity::Rowwise,
    Granularity::Columnwise,
    Granularity::Block { nb: 4 },
    Granularity::Tile { nb: 8 },
];

/// Nearest-rounded codes of a 3×10 tensor filled with the format's largest
/// value, so every group's decode scale is exactly 1 (a power of two — the
/// `Mx` variant can serialize it whatever the layout).
fn golden_codes(format: &str, layout: Granularity) -> QTensor {
    let format: ElementFormat = match format {
        "e2m1" => FloatFormat::e2m1().into(),
        "e4m3" => FloatFormat::e4m3().into(),
        "e5m2" => FloatFormat::e5m2().into(),
        "e3m4" => FloatFormat::e3m4().into(),
        "int2" => IntFormat::new(2).into(),
        "int4" => IntFormat::int4().into(),
        "int8" => IntFormat::int8().into(),
        other => panic!("no golden format {other}"),
    };
    let t = Tensor::from_vec(3, 10, vec![format.max_value(); 30]);
    Quantizer::new(format, layout, Rounding::Nearest)
        .quantize_packed(&t, &mut Rng::seed_from(0)) // untouched under nearest rounding
        .expect("packable")
}

#[test]
fn wire_headers_match_the_recorded_bytes() {
    for (i, (name, want)) in GOLDEN_HEADERS.into_iter().enumerate() {
        let (variant, format) = name.split_once(' ').expect("variant format");
        // The 16 variant × format rows cycle the layouts; the three extra
        // format-id rows are rowwise.
        let layout = if i < 16 {
            GOLDEN_LAYOUTS[i % 5]
        } else {
            Granularity::Rowwise
        };
        let codes = golden_codes(format, layout);
        let packed = match variant {
            "codes" => PackedTensor::Codes(codes),
            "mx" => PackedTensor::Mx(codes),
            "rotated" => PackedTensor::Rotated {
                codes,
                block: 16,
                seed: 0x0123_4567_89AB_CDEF,
            },
            "split" => PackedTensor::Split {
                body: codes,
                outliers: [(4, 1.5), (29, -2.0)]
                    .map(|(index, value)| PackedOutlier { index, value })
                    .to_vec(),
            },
            other => panic!("no golden variant {other}"),
        };
        let frame = packed.to_wire_bytes().expect(name);
        let header: String = frame[..WIRE_HEADER_BYTES]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(header, want, "{name}");
        assert_eq!(PackedTensor::from_wire_bytes(&frame).expect(name), packed);
    }
}
