open Desim

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

let make rng ~tag ~len =
  assert (len >= 1);
  let buf = Bytes.create len in
  let tag_len = min (String.length tag) len in
  Bytes.blit_string tag 0 buf 0 tag_len;
  (* One [Rng.int] draw per padding byte: the draw count is part of every
     workload's random stream, so it must not change. *)
  for i = tag_len to len - 1 do
    Bytes.unsafe_set buf i alphabet.[Rng.int rng (String.length alphabet)]
  done;
  Bytes.unsafe_to_string buf
