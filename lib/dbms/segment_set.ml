type t = (int * int) list

let of_prefix n = if n > 0 then [ (0, n) ] else []

(* The pieces of [t] before [start], nearest first, onto [acc]. *)
let rec left_of start acc = function
  | ((a, b) as seg) :: rest when a < start ->
      left_of start ((if b <= start then seg else (a, start)) :: acc) rest
  | _ -> acc

(* The pieces of [t] from [stop] on. *)
let rec right_of stop = function
  | [] -> []
  | (_, b) :: rest when b <= stop -> right_of stop rest
  | ((a, b) :: rest) as l -> if a >= stop then l else (stop, b) :: rest

(* [seg] followed by [right], merged with its head if they touch. *)
let cons_merging ((a, b) as seg) right =
  match right with
  | (c, d) :: rest when c = b -> (a, d) :: rest
  | _ -> seg :: right

let shadow t ~start ~stop ~trusted =
  assert (0 <= trusted && trusted <= stop - start);
  if stop = start then t
  else begin
    (* The cut leaves a gap, so the two sides never touch each other;
       the trusted piece may touch either. *)
    let left = left_of start [] t and right = right_of stop t in
    if trusted = 0 then List.rev_append left right
    else
      let te = start + trusted in
      match left with
      | (a, b) :: l when b = start -> List.rev_append l (cons_merging (a, te) right)
      | l -> List.rev_append l (cons_merging (start, te) right)
  end

let prefix = function (0, b) :: _ -> b | _ -> 0
